package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"gpufi/internal/store"
)

var (
	promHelpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (.+)$`)
)

// TestMetricsPromFormat runs a campaign through the service and checks
// the Prometheus view of /metrics: every line must follow the text
// exposition format (HELP/TYPE comments, name{labels} value samples), the
// endpoint must expose at least 12 metric families including at least 3
// histograms, and every sample must belong to a declared family.
func TestMetricsPromFormat(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Workers: 1})
	if _, err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Run one traced campaign so the histograms have observations.
	sub := postCampaign(t, ts.URL, `{"app":"VA","gpu":"RTX2060","kernel":"va_add","structure":"regfile","runs":10,"seed":4,"workers":1,"trace":true}`)
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	readSSE(t, resp, func(ev sseEvent) bool { return ev.name == "done" })

	resp, err = http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	families := map[string]string{} // name -> type
	samples := 0
	for ln, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if m := promTypeRe.FindStringSubmatch(line); m != nil {
			families[m[1]] = m[2]
			continue
		}
		if promHelpRe.MatchString(line) {
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d is not valid exposition format: %q", ln+1, line)
		}
		if _, err := strconv.ParseFloat(m[4], 64); err != nil {
			t.Fatalf("line %d: sample value %q: %v", ln+1, m[4], err)
		}
		// A histogram family's samples carry the _bucket/_sum/_count
		// suffixes; strip them to find the declaring family.
		name := m[1]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if families[base] == "histogram" {
				name = base
				break
			}
		}
		if _, ok := families[name]; !ok {
			t.Errorf("line %d: sample %q has no # TYPE declaration", ln+1, m[1])
		}
		samples++
	}
	if len(families) < 12 {
		t.Errorf("%d metric families, want >= 12: %v", len(families), families)
	}
	histograms := 0
	for _, kind := range families {
		if kind == "histogram" {
			histograms++
		}
	}
	if histograms < 3 {
		t.Errorf("%d histogram families, want >= 3: %v", histograms, families)
	}
	if samples == 0 {
		t.Error("no samples in the exposition")
	}

	// The experiment histogram (process-wide registry) must have counted
	// the campaign's runs.
	if !strings.Contains(string(raw), "gpufi_experiment_seconds_count") {
		t.Error("process-wide gpufi_experiment_seconds histogram missing from the scrape")
	}
	// The early-stop counters by rule, and what they saved.
	for _, name := range []string{"gpufi_early_stops_inert", "gpufi_early_stops_overwritten",
		"gpufi_early_stops_retired", "gpufi_early_stops_dead", "gpufi_restores_chained", "gpufi_suffix_cycles_skipped"} {
		if families[name] != "gauge" {
			t.Errorf("%s missing from the scrape (families: %v)", name, families[name])
		}
	}
}

// TestRequestIDMiddleware checks the X-Request-ID contract: a client-sent
// id is echoed back verbatim, and a request without one gets a generated
// id on the response.
func TestRequestIDMiddleware(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "abc-123" {
		t.Errorf("propagated id: %q, want abc-123", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == "" {
		t.Error("no generated X-Request-ID on the response")
	}
}
