package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gpufi/internal/shard"
	"gpufi/internal/store"
)

// TestRecoveringResponses pins the wire contract while a restarted
// coordinator is rebuilding a campaign's shard table: claims and requests
// against shards of the recovering campaign answer a typed 503
// coordinator_recovering with a Retry-After hint, while shards of
// campaigns the coordinator has never heard of stay a plain 404.
func TestRecoveringResponses(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := shard.NewCoordinator(st, shard.Options{})
	srv := New(st, Options{Workers: 1, Coordinator: co})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// Simulate the window srv.Start opens on a coordinator node: the
	// campaign is queued for resume but its prepare has not finished.
	co.MarkRecovering("camp-x")

	// A claim that finds nothing claimable must say "try again shortly",
	// not "no work": the recovering campaign's shards are about to exist.
	resp, err := http.Post(ts.URL+"/v1/shards/claim", "application/json",
		strings.NewReader(`{"worker":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	code, _, _ := decodeEnvelope(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || code != "coordinator_recovering" {
		t.Fatalf("claim during rebuild: %d %q, want 503 coordinator_recovering", resp.StatusCode, code)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("claim during rebuild: Retry-After %q, want \"1\"", ra)
	}

	// An idle worker's empty batch for a shard of the recovering campaign:
	// same answer — the lease may well still be valid once the table is
	// rebuilt.
	resp, err = http.Post(ts.URL+"/v1/shards/camp-x:1:0/journal", "application/json",
		strings.NewReader(`{"campaign":"camp-x","shard":"camp-x:1:0","lease":"stale-token","seq":1,"records":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if code, _, _ := decodeEnvelope(t, resp); resp.StatusCode != http.StatusServiceUnavailable || code != "coordinator_recovering" {
		t.Fatalf("empty batch during rebuild: %d %q, want 503 coordinator_recovering", resp.StatusCode, code)
	}

	// A shard of a campaign that is NOT recovering is simply unknown.
	resp, err = http.Post(ts.URL+"/v1/shards/other:1:0/journal", "application/json",
		strings.NewReader(`{"campaign":"other","shard":"other:1:0","lease":"x","seq":1,"records":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if code, _, _ := decodeEnvelope(t, resp); resp.StatusCode != http.StatusNotFound || code != "shard_unknown" {
		t.Fatalf("empty batch on unknown shard: %d %q, want 404 shard_unknown", resp.StatusCode, code)
	}
}
