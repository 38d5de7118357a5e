package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gpufi/internal/store"
)

// This file covers the /v1 API: the versioned prefix (and the absence of
// the unversioned one), the uniform error envelope, spec fields the API no
// longer accepts, cursor pagination on the campaign listing, and the shard
// control plane's behavior on a non-coordinator node.

func newAPIServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// decodeEnvelope asserts a response is the uniform error envelope and
// returns its fields.
func decodeEnvelope(t *testing.T, resp *http.Response) (code, message, requestID string) {
	t.Helper()
	defer resp.Body.Close()
	var env struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not the envelope: %v", err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("incomplete envelope: %+v", env.Error)
	}
	return env.Error.Code, env.Error.Message, env.Error.RequestID
}

// TestErrorEnvelope checks every error class answers the same JSON shape,
// with the request id echoing what the client sent.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newAPIServer(t)

	// 404 with a propagated request id.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/campaigns/nope", nil)
	req.Header.Set("X-Request-ID", "envelope-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	code, _, rid := decodeEnvelope(t, resp)
	if resp.StatusCode != 404 || code != "not_found" || rid != "envelope-test-1" {
		t.Errorf("404: status=%d code=%q request_id=%q", resp.StatusCode, code, rid)
	}

	// 400 on a malformed spec.
	resp, err = http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	if code, _, rid := decodeEnvelope(t, resp); resp.StatusCode != 400 || code != "invalid_request" || rid == "" {
		t.Errorf("400: status=%d code=%q request_id=%q", resp.StatusCode, code, rid)
	}

	// 503 from the shard control plane on a non-coordinator node.
	resp, err = http.Post(ts.URL+"/v1/shards/claim", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if code, _, _ := decodeEnvelope(t, resp); resp.StatusCode != 503 || code != "not_coordinator" {
		t.Errorf("shard claim on local node: status=%d code=%q", resp.StatusCode, code)
	}
}

// TestUnversionedRoutesGone checks the pre-/v1 campaign routes are not
// served: every method on /campaigns... answers the uniform 404 envelope
// with a request id and no Deprecation pointer, without touching the
// store, while the /v1 route next to it still works.
func TestUnversionedRoutesGone(t *testing.T) {
	srv, ts := newAPIServer(t)
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodGet, "/campaigns", ""},
		{http.MethodPost, "/campaigns", vaBody},
		{http.MethodGet, "/campaigns/nope", ""},
		{http.MethodGet, "/campaigns/nope/events", ""},
		{http.MethodGet, "/campaigns/nope/log", ""},
		{http.MethodGet, "/campaigns/nope/trace", ""},
		{http.MethodDelete, "/campaigns/nope", ""},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		code, msg, rid := decodeEnvelope(t, resp)
		if resp.StatusCode != 404 || code != "not_found" || rid == "" || rid != resp.Header.Get("X-Request-ID") {
			t.Errorf("%s %s: status=%d code=%q request_id=%q header=%q",
				tc.method, tc.path, resp.StatusCode, code, rid, resp.Header.Get("X-Request-ID"))
		}
		if !strings.Contains(msg, tc.method+" "+tc.path) {
			t.Errorf("%s %s: message %q does not name the request", tc.method, tc.path, msg)
		}
		if resp.Header.Get("Deprecation") != "" || resp.Header.Get("Link") != "" {
			t.Errorf("%s %s: removed route still advertises a successor", tc.method, tc.path)
		}
	}
	if ids, err := srv.st.List(); err != nil || len(ids) != 0 {
		t.Errorf("POST /campaigns created a campaign: ids=%v err=%v", ids, err)
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("GET /v1/campaigns: %d", resp.StatusCode)
	}
}

// TestWrongMethodOnKnownRoute checks a served path under a method it does
// not serve answers 405 with the Allow list and the enveloped
// method_not_allowed, while a path no route serves stays a 404 whatever
// the method.
func TestWrongMethodOnKnownRoute(t *testing.T) {
	srv, ts := newAPIServer(t)
	for _, tc := range []struct {
		method, path string
		status       int
		allow        string
	}{
		{http.MethodPut, "/v1/campaigns", 405, "GET, HEAD, POST"},
		{http.MethodDelete, "/v1/campaigns", 405, "GET, HEAD, POST"},
		{http.MethodPut, "/v1/campaigns/nope", 405, "GET, HEAD, DELETE"},
		{http.MethodPost, "/v1/campaigns/nope", 405, "GET, HEAD, DELETE"},
		{http.MethodPost, "/v1/campaigns/nope/log", 405, "GET, HEAD"},
		{http.MethodDelete, "/v1/campaigns/nope/events", 405, "GET, HEAD"},
		{http.MethodGet, "/v1/shards/claim", 405, "POST"},
		{http.MethodPost, "/v1/shards", 405, "GET, HEAD"},
		{http.MethodGet, "/v1/shards/s1/heartbeat", 405, "POST"},
		{http.MethodPut, "/v1/shards/s1/journal", 405, "POST"},
		{http.MethodPost, "/metrics", 405, "GET, HEAD"},
		{http.MethodDelete, "/healthz", 405, "GET, HEAD"},
		{"PURGE", "/readyz", 405, "GET, HEAD"},
		{http.MethodPut, "/v1/nope", 404, ""},
		{http.MethodPost, "/v1/campaigns/nope/log/extra", 404, ""},
		{http.MethodGet, "/v1/shards/s1", 404, ""},
		{http.MethodPatch, "/", 404, ""},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(vaBody))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		code, msg, rid := decodeEnvelope(t, resp)
		wantCode := "not_found"
		if tc.status == 405 {
			wantCode = "method_not_allowed"
		}
		if resp.StatusCode != tc.status || code != wantCode || resp.Header.Get("Allow") != tc.allow {
			t.Errorf("%s %s: status=%d code=%q Allow=%q, want %d %q Allow=%q",
				tc.method, tc.path, resp.StatusCode, code, resp.Header.Get("Allow"), tc.status, wantCode, tc.allow)
		}
		if rid == "" || rid != resp.Header.Get("X-Request-ID") {
			t.Errorf("%s %s: request_id=%q header=%q", tc.method, tc.path, rid, resp.Header.Get("X-Request-ID"))
		}
		if !strings.Contains(msg, tc.method) || !strings.Contains(msg, tc.path) {
			t.Errorf("%s %s: message %q does not name the request", tc.method, tc.path, msg)
		}
	}
	if ids, err := srv.st.List(); err != nil || len(ids) != 0 {
		t.Errorf("a refused method created a campaign: ids=%v err=%v", ids, err)
	}
}

// TestRemovedSpecFieldRejected checks a submission that still asks for the
// removed full-replay engine or the removed parallel core stepper is refused
// as a bad spec naming the field, not silently run without it.
func TestRemovedSpecFieldRejected(t *testing.T) {
	srv, ts := newAPIServer(t)
	for field, value := range map[string]string{"legacy_replay": "true", "parallel_cores": "4"} {
		body := strings.Replace(vaBody, "{", fmt.Sprintf(`{%q:%s,`, field, value), 1)
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		code, msg, _ := decodeEnvelope(t, resp)
		if resp.StatusCode != 400 || code != "invalid_request" ||
			!strings.Contains(msg, "bad campaign spec") || !strings.Contains(msg, field) {
			t.Errorf("%s submission: status=%d code=%q message=%q", field, resp.StatusCode, code, msg)
		}
	}
	if ids, err := srv.st.List(); err != nil || len(ids) != 0 {
		t.Errorf("rejected submission created a campaign: ids=%v err=%v", ids, err)
	}
}

// TestListPagination seeds a store with more campaigns than one page and
// walks the cursor: pages are ascending by id, disjoint, exhaustive, and
// sized by limit.
func TestListPagination(t *testing.T) {
	srv, ts := newAPIServer(t)
	total := 25
	for i := 0; i < total; i++ {
		id := fmt.Sprintf("page-%03d", i)
		c, err := srv.st.Create(id, store.Spec{
			App: "VA", GPU: "RTX2060", Kernel: "va_add", Structure: "regfile",
			Runs: 5, Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}

	type page struct {
		Campaigns []struct {
			ID string `json:"id"`
		} `json:"campaigns"`
		NextCursor string `json:"next_cursor"`
	}
	fetch := func(limit int, cursor string) page {
		t.Helper()
		url := fmt.Sprintf("%s/v1/campaigns?limit=%d", ts.URL, limit)
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("list: %d", resp.StatusCode)
		}
		var p page
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatal(err)
		}
		return p
	}

	var seen []string
	cursor := ""
	pages := 0
	for {
		p := fetch(10, cursor)
		pages++
		if len(p.Campaigns) > 10 {
			t.Fatalf("page of %d exceeds limit 10", len(p.Campaigns))
		}
		for _, c := range p.Campaigns {
			if len(seen) > 0 && c.ID <= seen[len(seen)-1] {
				t.Fatalf("ordering violated: %s after %s", c.ID, seen[len(seen)-1])
			}
			seen = append(seen, c.ID)
		}
		if p.NextCursor == "" {
			break
		}
		cursor = p.NextCursor
	}
	if len(seen) != total || pages != 3 {
		t.Fatalf("walked %d campaigns in %d pages (want %d in 3)", len(seen), pages, total)
	}

	// Default limit fits everything here: one page, no cursor.
	resp, err := http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var p page
	json.NewDecoder(resp.Body).Decode(&p)
	resp.Body.Close()
	if len(p.Campaigns) != total || p.NextCursor != "" {
		t.Fatalf("default page: %d campaigns, cursor %q", len(p.Campaigns), p.NextCursor)
	}

	// Bad limit is an enveloped 400.
	resp, err = http.Get(ts.URL + "/v1/campaigns?limit=zero")
	if err != nil {
		t.Fatal(err)
	}
	if code, _, _ := decodeEnvelope(t, resp); resp.StatusCode != 400 || code != "invalid_request" {
		t.Errorf("bad limit: status=%d code=%q", resp.StatusCode, code)
	}
}
