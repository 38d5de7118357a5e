package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpufi/internal/service"
	"gpufi/internal/shard"
	"gpufi/internal/store"
)

// lifetime is one coordinator process incarnation over a shared store
// directory, with manual teardown so a test can crash it mid-campaign.
type lifetime struct {
	st  *store.Store
	co  *shard.Coordinator
	srv *service.Server
	ts  *httptest.Server
}

func startLifetime(t *testing.T, dir string, shards int, ttl time.Duration) *lifetime {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	co := shard.NewCoordinator(st, shard.Options{ShardsPerCampaign: shards, LeaseTTL: ttl})
	srv := service.New(st, service.Options{Workers: 2, Coordinator: co})
	if _, err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}
	return &lifetime{st: st, co: co, srv: srv, ts: httptest.NewServer(srv.Handler())}
}

// crash simulates a coordinator process death: in-memory state and
// buffered WAL/journal tails are lost, nothing is flushed.
func (l *lifetime) crash() {
	l.co.Crash()
	if l.ts != nil {
		l.ts.Close()
	}
	l.srv.Close()
}

// claimShard polls /v1/shards/claim until a shard is granted, failing on
// anything other than "no work yet" or "recovering".
func claimShard(t testing.TB, base, worker string, within time.Duration) *shard.Shard {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		resp, err := http.Post(base+"/v1/shards/claim", "application/json",
			strings.NewReader(fmt.Sprintf(`{"worker":%q}`, worker)))
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var sh shard.Shard
			json.NewDecoder(resp.Body).Decode(&sh)
			resp.Body.Close()
			return &sh
		case http.StatusNoContent, http.StatusServiceUnavailable:
			resp.Body.Close()
		default:
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			t.Fatalf("claim: unexpected status %d: %s", resp.StatusCode, buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no shard became claimable")
	return nil
}

// postCode POSTs a JSON body and returns the HTTP status and typed error
// code (empty on success).
func postCode(t *testing.T, urlStr string, body any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(urlStr, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	return resp.StatusCode, env.Error.Code
}

// TestLeaseFencingAfterRestart is the deterministic fencing gate: a lease
// granted by a coordinator that then crashes must never act again once
// the restarted coordinator re-issues the shard — a journal batch under
// the pre-crash token, even an empty one, answers a typed 409 lease_fenced,
// while the successor lease (at the next epoch) works normally.
func TestLeaseFencingAfterRestart(t *testing.T) {
	dir := t.TempDir()
	id := "fence-restart"

	// One shard, short TTL: the restarted coordinator restores the
	// pre-crash lease with a fresh TTL of grace, so the heir's claim goes
	// through right after that grace expires — and it must land on the
	// SAME shard, at the next epoch.
	l1 := startLifetime(t, dir, 1, 750*time.Millisecond)
	submit(t, l1.ts.URL, map[string]any{
		"id": id, "app": "VA", "gpu": "RTX2060", "kernel": "va_add",
		"structure": "regfile", "runs": 20, "seed": 5, "workers": 2,
	})
	old := claimShard(t, l1.ts.URL, "doomed", time.Minute)
	if old.Epoch != 1 {
		t.Fatalf("first grant epoch %d, want 1", old.Epoch)
	}
	l1.crash()

	// Lifetime 2 over the same store: the resume scan re-queues the
	// campaign and the coordinator rebuilds its shard table from the
	// control WAL. The pre-crash grant was fsynced, so the rebuilt state
	// remembers its epoch even though the crash flushed nothing after it.
	l2 := startLifetime(t, dir, 1, 750*time.Millisecond)
	defer func() { l2.ts.Close(); l2.srv.Close() }()

	heir := claimShard(t, l2.ts.URL, "heir", time.Minute)
	if heir.ID != old.ID {
		t.Fatalf("heir claimed %s, want the crashed lease's shard %s", heir.ID, old.ID)
	}
	if heir.Epoch != old.Epoch+1 {
		t.Fatalf("heir epoch %d, want %d (monotonic across restart)", heir.Epoch, old.Epoch+1)
	}
	if heir.Lease == old.Lease {
		t.Fatal("restarted coordinator re-issued the identical lease token")
	}

	// The pre-crash lease is fenced: it can neither renew nor write.
	jURL := l2.ts.URL + "/v1/shards/" + old.ID + "/journal"
	staleBatch := shard.Batch{Campaign: id, Shard: old.ID, Lease: old.Lease, Seq: 1, Records: []shard.Record{}}
	if code, kind := postCode(t, jURL, staleBatch); code != http.StatusConflict || kind != "lease_fenced" {
		t.Fatalf("stale empty batch: %d %q, want 409 lease_fenced", code, kind)
	}

	// The successor lease is live.
	heirBatch := shard.Batch{Campaign: id, Shard: heir.ID, Lease: heir.Lease, Seq: 1, Records: []shard.Record{}}
	if code, kind := postCode(t, jURL, heirBatch); code != http.StatusOK || kind != "" {
		t.Fatalf("heir's empty batch: %d %q, want 200", code, kind)
	}

	if st := l2.co.Stats(); st.WALRebuilds != 1 || st.LeasesFenced != 1 {
		t.Fatalf("stats after restart: rebuilds=%d fenced=%d, want 1 and 1", st.WALRebuilds, st.LeasesFenced)
	}

	// The campaign is left mid-flight on purpose; completion across a
	// restart is TestRestartFinishesCampaign's job.
	l2.co.Revoke(id)
}

// TestRestartFinishesCampaign closes the loop the fencing test leaves
// open: a campaign interrupted by a coordinator crash runs to completion
// in the next lifetime with real workers, and the merged journal matches
// an uninterrupted local run record for record.
func TestRestartFinishesCampaign(t *testing.T) {
	dir := t.TempDir()
	id := "restart-finish"
	spec := store.Spec{
		App: "VA", GPU: "RTX2060", Kernel: "va_add", Structure: "regfile",
		Runs: 24, Seed: 9, Workers: 2,
	}

	l1 := startLifetime(t, dir, 4, time.Second)
	submit(t, l1.ts.URL, map[string]any{
		"id": id, "app": spec.App, "gpu": spec.GPU, "kernel": spec.Kernel,
		"structure": spec.Structure, "runs": spec.Runs, "seed": spec.Seed,
		"workers": spec.Workers,
	})
	// One shard is claimed but never executed: its grant must not strand
	// the shard across the restart.
	claimShard(t, l1.ts.URL, "doomed", time.Minute)
	l1.crash()

	l2 := startLifetime(t, dir, 4, time.Second)
	defer func() { l2.ts.Close(); l2.srv.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &cluster{st: l2.st, co: l2.co, srv: l2.srv, ts: l2.ts}
	startWorker(ctx, c, "w1", 3, nil)
	startWorker(ctx, c, "w2", 3, nil)
	waitDone(t, l2.ts.URL, id, 2*time.Minute)

	local, _, _ := library(t, spec)
	sharded, dups := journalRecords(t, l2.st, id)
	if dups != 0 {
		t.Errorf("%d duplicate exp records after restart merge", dups)
	}
	for i := 0; i < spec.Runs; i++ {
		if _, ok := sharded[fmt.Sprintf("exp:%d", i)]; !ok {
			t.Errorf("experiment %d stranded by the restart", i)
		}
	}
	diffJournals(t, "restart-finish", sharded, local)
	if l2.co.Stats().WALRebuilds != 1 {
		t.Errorf("WALRebuilds = %d, want 1", l2.co.Stats().WALRebuilds)
	}
}
