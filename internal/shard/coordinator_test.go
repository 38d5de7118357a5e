package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/store"
)

// testClock is an injectable coordinator clock: lease-expiry tests advance
// it instead of sleeping.
type testClock struct {
	base time.Time
	off  atomic.Int64 // nanoseconds
}

func (c *testClock) now() time.Time { return c.base.Add(time.Duration(c.off.Load())) }

func (c *testClock) advance(d time.Duration) { c.off.Add(int64(d)) }

func vaSpec(runs int) store.Spec {
	return store.Spec{
		App: "VA", GPU: "RTX2060", Kernel: "va_add", Structure: "regfile",
		Runs: runs, Seed: 11, Workers: 2,
	}
}

// execShard runs a shard's experiments with the local engine, the same way
// a worker node would, and returns them in completion order.
func execShard(t *testing.T, sh *Shard) []core.Experiment {
	t.Helper()
	cfg, err := sh.Spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := core.ProfileApp(nil, cfg.App, cfg.GPU)
	if err != nil {
		t.Fatal(err)
	}
	mine := make(map[int]bool, len(sh.Indices))
	for _, i := range sh.Indices {
		mine[i] = true
	}
	for i := 0; i < cfg.Runs; i++ {
		if !mine[i] {
			cfg.Completed = append(cfg.Completed, i)
		}
	}
	var mu sync.Mutex
	var exps []core.Experiment
	cfg.Journal = func(e core.Experiment) error {
		mu.Lock()
		exps = append(exps, e)
		mu.Unlock()
		return nil
	}
	if _, err := core.RunCampaign(nil, cfg, prof); err != nil {
		t.Fatal(err)
	}
	return exps
}

func expBatch(sh *Shard, lease string, exps []core.Experiment) Batch {
	b := Batch{Campaign: sh.Campaign, Shard: sh.ID, Lease: lease}
	for i := range exps {
		e := exps[i]
		b.Records = append(b.Records, Record{Kind: KindExp, Exp: &e})
	}
	return b
}

// claimSoon polls Claim until the campaign's shards are registered (Run
// plans them after the profile run) or the deadline passes.
func claimSoon(t *testing.T, co *Coordinator, worker string) *Shard {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		sh, err := co.Claim(worker)
		if err == nil {
			return sh
		}
		if !errors.Is(err, ErrNoWork) {
			t.Fatalf("claim: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no shard became claimable")
	return nil
}

// TestCoordinatorLifecycle drives the whole lease protocol against a real
// campaign, with an injected clock standing in for wall time: claim,
// bogus and valid heartbeats, lease expiry and re-issue, ingest under an
// expired (but issued) lease, duplicate-batch idempotence, out-of-shard
// rejection, and the campaign completing with a durable done marker.
func TestCoordinatorLifecycle(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clk := &testClock{base: time.Now()}
	co := NewCoordinator(st, Options{ShardsPerCampaign: 2, LeaseTTL: time.Minute})
	co.now = clk.now

	type runOut struct {
		res *core.CampaignResult
		err error
	}
	runCh := make(chan runOut, 1)
	go func() {
		res, err := co.Run(context.Background(), "lease-test", vaSpec(10), nil)
		runCh <- runOut{res, err}
	}()

	sh0 := claimSoon(t, co, "w1")
	sh1 := claimSoon(t, co, "w1")
	if sh0.Campaign != "lease-test" || sh1.Campaign != "lease-test" {
		t.Fatalf("claimed shards of %q/%q", sh0.Campaign, sh1.Campaign)
	}
	if len(sh0.Indices)+len(sh1.Indices) != 10 {
		t.Fatalf("shards cover %d+%d of 10 experiments", len(sh0.Indices), len(sh1.Indices))
	}
	if _, err := co.Claim("w1"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("third claim: want ErrNoWork, got %v", err)
	}

	// Heartbeats: bogus lease and unknown shard are typed rejections.
	if _, err := co.Heartbeat(sh0.ID, "bogus"); !errors.Is(err, ErrLeaseRevoked) {
		t.Fatalf("bogus heartbeat: want ErrLeaseRevoked, got %v", err)
	}
	if _, err := co.Heartbeat("nope:0", sh0.Lease); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("unknown shard heartbeat: want ErrUnknownShard, got %v", err)
	}
	if hb, err := co.Heartbeat(sh0.ID, sh0.Lease); err != nil || hb.ExpiresInMS <= 0 {
		t.Fatalf("valid heartbeat: %v %+v", err, hb)
	}

	// Both leases expire; the shards become claimable again.
	clk.advance(2 * time.Minute)
	re0 := claimSoon(t, co, "w2")
	if re0.ID != sh0.ID {
		t.Fatalf("re-issue order: want %s first, got %s", sh0.ID, re0.ID)
	}
	if re0.Lease == sh0.Lease {
		t.Fatal("re-issued shard kept the dead lease token")
	}
	if _, err := co.Heartbeat(sh0.ID, sh0.Lease); !errors.Is(err, ErrLeaseFenced) {
		t.Fatalf("heartbeat on replaced lease: want ErrLeaseFenced, got %v", err)
	}
	if re0.Epoch != sh0.Epoch+1 {
		t.Fatalf("re-issue epoch: want %d, got %d", sh0.Epoch+1, re0.Epoch)
	}

	// The original worker limps back with results under its re-issued
	// lease: fenced out, nothing merged — the successor owns the shard now.
	exps0 := execShard(t, sh0)
	if _, err := co.Ingest(expBatch(sh0, sh0.Lease, exps0)); !errors.Is(err, ErrLeaseFenced) {
		t.Fatalf("ingest under fenced lease: want ErrLeaseFenced, got %v", err)
	}

	// The successor delivers the same results under the live lease.
	res, err := co.Ingest(expBatch(sh0, re0.Lease, exps0))
	if err != nil {
		t.Fatalf("ingest under live lease: %v", err)
	}
	if res.Accepted != len(exps0) || res.Duplicates != 0 || !res.ShardDone {
		t.Fatalf("first ingest: %+v (want %d accepted, shard done)", res, len(exps0))
	}

	// A replay of the same batch is pure duplicates, no effect.
	res, err = co.Ingest(expBatch(sh0, re0.Lease, exps0))
	if err != nil {
		t.Fatalf("duplicate ingest: %v", err)
	}
	if res.Accepted != 0 || res.Duplicates != len(exps0) {
		t.Fatalf("duplicate ingest: %+v (want all duplicates)", res)
	}

	// A record outside the shard's index set is a malformed batch.
	exps1 := execShard(t, sh1)
	bad := expBatch(sh0, re0.Lease, exps1[:1])
	if _, err := co.Ingest(bad); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("out-of-shard record: want ErrBadBatch, got %v", err)
	}

	// Lease never issued for this shard: revoked even though it is valid
	// for the other one.
	if _, err := co.Ingest(expBatch(sh1, sh0.Lease, exps1)); !errors.Is(err, ErrLeaseRevoked) {
		t.Fatalf("cross-shard lease: want ErrLeaseRevoked, got %v", err)
	}

	// Re-claim shard 1 (its lease also expired) and finish the campaign.
	re1 := claimSoon(t, co, "w2")
	if re1.ID != sh1.ID {
		t.Fatalf("want %s re-issued, got %s", sh1.ID, re1.ID)
	}
	res, err = co.Ingest(expBatch(sh1, re1.Lease, exps1))
	if err != nil {
		t.Fatalf("final ingest: %v", err)
	}
	if !res.CampaignDone {
		t.Fatalf("final ingest: %+v (want campaign done)", res)
	}

	out := <-runCh
	if out.err != nil {
		t.Fatalf("Run: %v", out.err)
	}
	if got := len(out.res.Exps); got != 10 {
		t.Fatalf("merged result has %d experiments, want 10", got)
	}
	info, err := st.Inspect("lease-test")
	if err != nil || !info.Done {
		t.Fatalf("campaign not durably done: %+v %v", info, err)
	}

	// The campaign stays known after completion: late batches are refused,
	// not silently re-merged into a finished journal.
	if _, err := co.Ingest(expBatch(sh1, re1.Lease, exps1)); !errors.Is(err, ErrCampaignClosed) {
		t.Fatalf("post-completion ingest: want ErrCampaignClosed, got %v", err)
	}

	stats := co.Stats()
	if stats.ShardsPlanned != 2 || stats.ShardsCompleted != 2 {
		t.Errorf("stats: %+v (want 2 planned, 2 completed)", stats)
	}
	if stats.ShardsReissued != 2 || stats.LeaseExpiries != 2 {
		t.Errorf("stats: %+v (want 2 re-issues from 2 expiries)", stats)
	}
	if stats.RecordsDuped == 0 {
		t.Errorf("stats: %+v (want duplicate records counted)", stats)
	}
	if stats.LeasesFenced != 2 {
		t.Errorf("stats: %+v (want 2 fenced attempts: one heartbeat, one ingest)", stats)
	}
	if stats.WALRecords == 0 {
		t.Errorf("stats: %+v (want control WAL records appended)", stats)
	}
}

// TestCoordinatorRevoke pins the DELETE semantics: revoking a campaign
// mid-shard kills the leases and refuses late journal batches with the
// typed closed error, and the blocked Run returns cancelled.
func TestCoordinatorRevoke(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(st, Options{ShardsPerCampaign: 2, LeaseTTL: time.Minute})

	runCh := make(chan error, 1)
	go func() {
		_, err := co.Run(context.Background(), "revoke-test", vaSpec(8), nil)
		runCh <- err
	}()
	sh := claimSoon(t, co, "w1")
	exps := execShard(t, sh)

	co.Revoke("revoke-test")

	if err := <-runCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after revoke: want context.Canceled, got %v", err)
	}
	if _, err := co.Ingest(expBatch(sh, sh.Lease, exps)); !errors.Is(err, ErrCampaignClosed) {
		t.Fatalf("ingest after revoke: want ErrCampaignClosed, got %v", err)
	}
	if _, err := co.Heartbeat(sh.ID, sh.Lease); !errors.Is(err, ErrCampaignClosed) {
		t.Fatalf("heartbeat after revoke: want ErrCampaignClosed, got %v", err)
	}
	if _, err := co.Claim("w1"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("claim after revoke: want ErrNoWork, got %v", err)
	}
	// The journal survives, resumable: nothing was merged, nothing lost.
	info, err := st.Inspect("revoke-test")
	if err != nil {
		t.Fatal(err)
	}
	if info.Done {
		t.Fatal("revoked campaign must not be marked done")
	}
}

// TestCoordinatorResume pins re-planning over a partial journal: a
// campaign whose first coordinator lifetime merged some experiments is
// re-coordinated, and only the journal's gaps are sharded out again.
func TestCoordinatorResume(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(st, Options{ShardsPerCampaign: 2, LeaseTTL: time.Minute})

	go co.Run(context.Background(), "resume-test", vaSpec(10), nil)
	sh0 := claimSoon(t, co, "w1")
	exps0 := execShard(t, sh0)
	if _, err := co.Ingest(expBatch(sh0, sh0.Lease, exps0)); err != nil {
		t.Fatal(err)
	}
	co.Revoke("resume-test") // coordinator "dies" with one shard merged

	// Second lifetime over the same store.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	co2 := NewCoordinator(st2, Options{ShardsPerCampaign: 2, LeaseTTL: time.Minute})
	runCh := make(chan error, 1)
	go func() {
		res, err := co2.Run(context.Background(), "resume-test", vaSpec(10), nil)
		if err == nil && len(res.Exps) != 10 {
			err = errors.New("merged result incomplete")
		}
		runCh <- err
	}()
	var pending int
	for {
		sh := claimSoon(t, co2, "w2")
		for _, idx := range sh.Indices {
			for _, e := range exps0 {
				if e.ID == idx {
					t.Fatalf("re-plan re-issued already journaled experiment %d", idx)
				}
			}
		}
		pending += len(sh.Indices)
		if _, err := co2.Ingest(expBatch(sh, sh.Lease, execShard(t, sh))); err != nil {
			t.Fatal(err)
		}
		if pending == 10-len(exps0) {
			break
		}
	}
	if err := <-runCh; err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	info, err := st2.Inspect("resume-test")
	if err != nil || !info.Done || info.Completed != 10 {
		t.Fatalf("resumed campaign: %+v %v", info, err)
	}
}

// TestShardStatusesAfterFinalize pins the tombstone's read side: what GET
// /v1/shards reports for a campaign the instant before its last batch and
// after it finalized differs in the last shard's row only, and a batch
// that arrives later still gets the closed-campaign answer, never
// ErrUnknownShard.
func TestShardStatusesAfterFinalize(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(st, Options{ShardsPerCampaign: 3, LeaseTTL: time.Minute})
	done := make(chan error, 1)
	go func() {
		_, err := co.Run(context.Background(), "tomb", vaSpec(18), nil)
		done <- err
	}()
	var shards []*Shard
	var batches []Batch
	for len(shards) < 3 {
		sh := claimSoon(t, co, fmt.Sprintf("w%d", len(shards)))
		shards = append(shards, sh)
		batches = append(batches, expBatch(sh, sh.Lease, execShard(t, sh)))
	}
	for _, b := range batches[:2] {
		if _, err := co.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	// All of the last shard but one experiment, so the campaign stays open.
	last := batches[2]
	head, tail := last, last
	head.Records, tail.Records = last.Records[:len(last.Records)-1], last.Records[len(last.Records)-1:]
	if _, err := co.Ingest(head); err != nil {
		t.Fatal(err)
	}
	before := co.Statuses()
	if res, err := co.Ingest(tail); err != nil || !res.CampaignDone {
		t.Fatalf("final batch: %+v %v", res, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	after := co.Statuses()

	want := append([]Status(nil), before...)
	for i := range want {
		if want[i].ID == shards[2].ID {
			if want[i].State != "leased" || want[i].Merged != want[i].Indices-1 {
				t.Fatalf("last shard before its final record: %+v", want[i])
			}
			want[i].State, want[i].Merged = "done", want[i].Indices
		} else if want[i].State != "done" || want[i].Merged != want[i].Indices {
			t.Fatalf("merged shard before finalize: %+v", want[i])
		}
	}
	if !reflect.DeepEqual(after, want) {
		t.Fatalf("statuses after finalize:\n got %+v\nwant %+v", after, want)
	}
	if scanned, tracked, live := co.Footprint(); scanned != 0 || tracked != 1 || live != 0 {
		t.Fatalf("finished campaign: claim scan %d, tracked %d, still holding merge state %d; want 0, 1, 0",
			scanned, tracked, live)
	}
	if _, err := co.Ingest(tail); !errors.Is(err, ErrCampaignClosed) {
		t.Fatalf("late batch: want ErrCampaignClosed, got %v", err)
	}
	if _, err := co.Heartbeat(shards[0].ID, shards[0].Lease); !errors.Is(err, ErrCampaignClosed) {
		t.Fatalf("late heartbeat: want ErrCampaignClosed, got %v", err)
	}
	if _, err := co.Claim("w9"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("claim after finalize: want ErrNoWork, got %v", err)
	}
}
