package shard_test

import (
	"bytes"
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpufi/internal/shard"
)

// lastAnswer is a transport that records the coordinator's answer to a
// request and then ends the request's context, so the worker's call
// returns the decoded answer instead of waiting an outage out.
type lastAnswer struct {
	tr         *http.Transport
	status     int
	retryAfter string
	cancel     context.CancelFunc
}

func (a *lastAnswer) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := a.tr.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	a.status, a.retryAfter = resp.StatusCode, resp.Header.Get("Retry-After")
	a.cancel()
	return resp, nil
}

// TestWireRoundTrip provokes every typed protocol error from a real
// coordinator behind the real service handlers, over HTTP, and reads each
// answer back through the worker's one request path. Each comes back
// errors.Is the same error, with the status and Retry-After of its
// shard.Wire row (a claim with nothing to hand out: 204), and
// coordinator_recovering carries Retry-After: 1. A source walk fails on an
// Err variable of shard.go that has no row here.
func TestWireRoundTrip(t *testing.T) {
	const ttl = 50 * time.Millisecond
	c := startCluster(t, t.TempDir(), 1, ttl)
	a := &lastAnswer{tr: &http.Transport{}}
	t.Cleanup(a.tr.CloseIdleConnections)
	w := &shard.Worker{Base: c.ts.URL, Name: "wire", Client: &http.Client{Transport: a}}
	// empty is an idle worker's batch: no records, only the lease to renew.
	empty := func(sid, lease string) (string, any) {
		return "/v1/shards/" + sid + "/journal", shard.Batch{Shard: sid, Lease: lease, Seq: 1, Records: []shard.Record{}}
	}

	id := "wire"
	var first, heir *shard.Shard
	rows := []struct {
		name  string
		want  error
		setup func() // runs before the request
		req   func() (path string, body any)
	}{
		{name: "ErrNoWork", want: shard.ErrNoWork, req: func() (string, any) {
			return "/v1/shards/claim", shard.ClaimRequest{Worker: "wire"}
		}},
		{name: "ErrUnknownShard", want: shard.ErrUnknownShard, req: func() (string, any) {
			return empty("nobody:1:0", "x")
		}},
		{name: "ErrLeaseRevoked", want: shard.ErrLeaseRevoked, setup: func() {
			submit(t, c.ts.URL, map[string]any{"id": id, "app": "VA", "gpu": "RTX2060",
				"kernel": "va_add", "structure": "regfile", "runs": 20, "seed": 5, "workers": 1})
			first = claimShard(t, c.ts.URL, "first", time.Minute)
		}, req: func() (string, any) { return empty(first.ID, "forged") }},
		{name: "ErrBadBatch", want: shard.ErrBadBatch, req: func() (string, any) {
			return "/v1/shards/" + first.ID + "/journal",
				shard.Batch{Campaign: "another", Shard: first.ID, Lease: first.Lease, Seq: 1}
		}},
		{name: "ErrLeaseFenced", want: shard.ErrLeaseFenced, setup: func() {
			time.Sleep(2 * ttl) // the lease expires, and the next claim re-issues the shard
			heir = claimShard(t, c.ts.URL, "heir", time.Minute)
			if heir.ID != first.ID || heir.Epoch <= first.Epoch {
				t.Fatalf("re-claimed %s at epoch %d after %s at %d", heir.ID, heir.Epoch, first.ID, first.Epoch)
			}
		}, req: func() (string, any) { return empty(first.ID, first.Lease) }},
		{name: "ErrCampaignClosed", want: shard.ErrCampaignClosed, setup: func() {
			c.co.Revoke(id)
		}, req: func() (string, any) { return empty(heir.ID, heir.Lease) }},
		// Last: a recovering campaign turns every empty claim into this too.
		{name: "ErrRecovering", want: shard.ErrRecovering, setup: func() {
			c.co.MarkRecovering("rebuilding")
		}, req: func() (string, any) { return empty("rebuilding:1:0", "x") }},
	}

	named := map[string]bool{}
	for _, r := range rows {
		named[r.name] = true
		if r.setup != nil {
			r.setup()
		}
		ctx, cancel := context.WithCancel(context.Background())
		a.cancel = cancel
		path, body := r.req()
		err := w.Call(ctx, path, body, nil)
		cancel()

		status, retryAfter := http.StatusNoContent, ""
		if r.want != shard.ErrNoWork {
			status = 0
			for _, we := range shard.Wire {
				if we.Err == r.want {
					status = we.Status
					if we.RetryAfter > 0 {
						retryAfter = strconv.Itoa(we.RetryAfter)
					}
				}
			}
		}
		switch {
		case status == 0:
			t.Errorf("%s: no shard.Wire row", r.name)
		case !errors.Is(err, r.want):
			t.Errorf("%s: the worker decoded %v", r.name, err)
		case a.status != status || a.retryAfter != retryAfter:
			t.Errorf("%s: answered %d with Retry-After %q, its row says %d and %q",
				r.name, a.status, a.retryAfter, status, retryAfter)
		}
		if r.want == shard.ErrRecovering && a.retryAfter != "1" {
			t.Errorf("coordinator_recovering carries Retry-After %q, want 1", a.retryAfter)
		}
	}

	// Every typed error of the protocol has a row above.
	f, err := parser.ParseFile(token.NewFileSet(), "shard.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.VAR {
			for _, s := range g.Specs {
				for _, n := range s.(*ast.ValueSpec).Names {
					if strings.HasPrefix(n.Name, "Err") && !named[n.Name] {
						t.Errorf("shard.%s has no round-trip row", n.Name)
					}
				}
			}
		}
	}
}
