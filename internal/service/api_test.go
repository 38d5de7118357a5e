package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpufi/internal/store"
)

// This file covers the /v1 API: the versioned prefix (and the absence of
// the unversioned one), the uniform error envelope, spec fields the API no
// longer accepts, cursor pagination on the campaign listing, and the shard
// control plane's idle answer on a local node.

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

	// A local node is a coordinator too: a claim with nothing to do is a
	// bodiless 204, not an error.
	resp, err = http.Post(ts.URL+"/v1/shards/claim", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("idle shard claim on a local node: status=%d, want 204", resp.StatusCode)
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
		{http.MethodPut, "/v1/shards/s1/journal", 405, "POST"},
		{http.MethodPost, "/metrics", 405, "GET, HEAD"},
		{http.MethodDelete, "/healthz", 405, "GET, HEAD"},
		{"PURGE", "/readyz", 405, "GET, HEAD"},
		{http.MethodPut, "/v1/nope", 404, ""},
		{http.MethodPost, "/v1/campaigns/nope/log/extra", 404, ""},
		{http.MethodGet, "/v1/shards/s1", 404, ""},
		{http.MethodPost, "/v1/shards/s1/heartbeat", 404, ""}, // a batch renews the lease
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
// walks the cursor at three limits (the last one the default): pages are
// ascending by id, disjoint, exhaustive and sized by limit, and each
// next_cursor is its page's last id. In the corrupt_config row two more
// campaigns have a config.json nobody can read, one right after a page's
// last id and one after the last page: they are left out, and no page and
// no cursor moves.
func TestListPagination(t *testing.T) {
	type page struct {
		Campaigns []struct {
			ID string `json:"id"`
		} `json:"campaigns"`
		NextCursor string `json:"next_cursor"`
	}
	fetch := func(t *testing.T, base string, limit int, cursor string) page {
		t.Helper()
		url := base + "/v1/campaigns?cursor=" + cursor
		if limit > 0 {
			url += fmt.Sprintf("&limit=%d", limit)
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

	const total = 25
	rows := []struct {
		name    string
		corrupt []string
	}{
		{"clean", nil},
		{"corrupt_config", []string{"page-009a", "page-024a"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			srv, ts := newAPIServer(t)
			var valid []string
			create := func(id string, seed int64) {
				c, err := srv.st.Create(id, store.Spec{
					App: "VA", GPU: "RTX2060", Kernel: "va_add", Structure: "regfile",
					Runs: 5, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				c.Close()
			}
			for i := 0; i < total; i++ {
				valid = append(valid, fmt.Sprintf("page-%03d", i))
				create(valid[i], int64(i))
			}
			for _, id := range row.corrupt {
				create(id, 99)
				if err := os.WriteFile(filepath.Join(srv.st.Dir(), id, "config.json"), []byte("{torn"), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			for _, limit := range []int{5, 10, 0} {
				size := limit
				if limit == 0 {
					size = 100
				}
				cursor := ""
				for lo := 0; ; lo += size {
					p := fetch(t, ts.URL, limit, cursor)
					hi := min(lo+size, total)
					var got []string
					for _, c := range p.Campaigns {
						got = append(got, c.ID)
					}
					want, wantCursor := valid[lo:hi], ""
					if hi < total {
						wantCursor = valid[hi-1]
					}
					if strings.Join(got, " ") != strings.Join(want, " ") || p.NextCursor != wantCursor {
						t.Fatalf("limit %d after %q: page %v cursor %q, want %v cursor %q",
							limit, cursor, got, p.NextCursor, want, wantCursor)
					}
					if p.NextCursor == "" {
						break
					}
					cursor = p.NextCursor
				}
			}
		})
	}

	// Bad limit is an enveloped 400.
	_, ts := newAPIServer(t)
	resp, err := http.Get(ts.URL + "/v1/campaigns?limit=zero")
	if err != nil {
		t.Fatal(err)
	}
	if code, _, _ := decodeEnvelope(t, resp); resp.StatusCode != 400 || code != "invalid_request" {
		t.Errorf("bad limit: status=%d code=%q", resp.StatusCode, code)
	}
}

// TestRawRoutesNotFound holds the routes that serve a campaign's files to
// their 404s: for an id the store does not know, and for a campaign run
// without trace, which has a journal but neither traces nor a timeline.
func TestRawRoutesNotFound(t *testing.T) {
	srv, ts := newAPIServer(t)
	c, err := srv.st.Create("plain", store.Spec{App: "VA", GPU: "RTX2060", Kernel: "va_add",
		Structure: "regfile", Runs: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	rows := []struct {
		path   string
		status int
		msg    string // the envelope's message; its code is not_found
	}{
		{"/v1/campaigns/nope/log", 404, "no journal for campaign nope"},
		{"/v1/campaigns/nope/trace", 404, "no traces for campaign nope"},
		{"/v1/campaigns/nope/trace?format=jsonl", 404, "no spans for campaign nope"},
		{"/v1/campaigns/nope/trace?format=chrome", 404, "no spans for campaign nope"},
		{"/v1/campaigns/plain/log", 200, ""},
		{"/v1/campaigns/plain/trace", 404, "no traces for campaign plain"},
		{"/v1/campaigns/plain/trace?format=jsonl", 404, "no spans for campaign plain"},
		{"/v1/campaigns/plain/trace?format=chrome", 404, "no spans for campaign plain"},
	}
	for _, row := range rows {
		resp, err := http.Get(ts.URL + row.path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != row.status {
			resp.Body.Close()
			t.Errorf("GET %s: %d, want %d", row.path, resp.StatusCode, row.status)
			continue
		}
		if row.status == 200 {
			resp.Body.Close()
			continue
		}
		if code, msg, _ := decodeEnvelope(t, resp); code != "not_found" || msg != row.msg {
			t.Errorf("GET %s: %s %q, want not_found %q", row.path, code, msg, row.msg)
		}
	}
}
