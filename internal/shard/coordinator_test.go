package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/obs"
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
	cfg.Plan = nil // a shard runs fixed-N: the coordinator owns the rounds
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
	cfg.Sink = func(e core.Experiment) error {
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

// journalBytes syncs campaign id's journal and reads it back from disk.
func journalBytes(t *testing.T, co *Coordinator, st *store.Store, id string) []byte {
	t.Helper()
	co.mu.Lock()
	err := co.campaigns[id].c.Sync()
	co.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	f, err := st.OpenLog(id)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCoordinatorLifecycle drives the whole lease protocol against a real
// campaign, with an injected clock standing in for wall time: claim,
// empty batches under bogus and valid leases, lease expiry and re-issue, ingest under an
// expired (but issued) lease, duplicate-batch idempotence, out-of-shard
// rejection, and the campaign completing with a durable done record.
func TestCoordinatorLifecycle(t *testing.T) {
	walRecords := obs.Default().Counter("gpufi_shard_wal_records_total", "")
	walBefore := walRecords.Load()
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

	// Empty batches: bogus lease and unknown shard are typed rejections.
	if _, err := co.Ingest(expBatch(sh0, "bogus", nil)); !errors.Is(err, ErrLeaseRevoked) {
		t.Fatalf("bogus lease: want ErrLeaseRevoked, got %v", err)
	}
	unknown := *sh0
	unknown.ID = "nope:0"
	if _, err := co.Ingest(expBatch(&unknown, sh0.Lease, nil)); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("unknown shard: want ErrUnknownShard, got %v", err)
	}
	if res, err := co.Ingest(expBatch(sh0, sh0.Lease, nil)); err != nil || res.Accepted != 0 || res.ShardDone {
		t.Fatalf("valid empty batch: %v %+v", err, res)
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
	if _, err := co.Ingest(expBatch(sh0, sh0.Lease, nil)); !errors.Is(err, ErrLeaseFenced) {
		t.Fatalf("empty batch on replaced lease: want ErrLeaseFenced, got %v", err)
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

	// A malformed batch is refused before anything of it is written, its bad
	// record last behind good ones: a trace that names another experiment
	// (a trace rides in its own experiment's record), a trace at all (the
	// campaign is untraced), an experiment of another shard, a kind nobody
	// knows. The journal does not change, and
	// the next ingest accepts every record.
	exps1 := execShard(t, sh1)
	before := journalBytes(t, co, st, "lease-test")
	for _, bad := range []struct {
		what string
		rec  Record
	}{
		{"a foreign trace", Record{Kind: KindExp, Exp: &exps0[len(exps0)-1], Trace: &core.ExperimentTrace{ID: exps0[0].ID}}},
		{"a trace, the campaign untraced", Record{Kind: KindExp, Exp: &exps0[len(exps0)-1], Trace: &core.ExperimentTrace{ID: exps0[len(exps0)-1].ID}}},
		{"an out-of-shard experiment", Record{Kind: KindExp, Exp: &exps1[0]}},
		{"an unknown kind", Record{Kind: "bogus"}},
	} {
		b := expBatch(sh0, re0.Lease, exps0[:len(exps0)-1])
		b.Records = append(b.Records, bad.rec)
		if _, err := co.Ingest(b); !errors.Is(err, ErrBadBatch) {
			t.Fatalf("batch ending in %s: want ErrBadBatch, got %v", bad.what, err)
		}
		if after := journalBytes(t, co, st, "lease-test"); !bytes.Equal(after, before) {
			t.Fatalf("batch ending in %s was refused, and the journal grew by %d bytes", bad.what, len(after)-len(before))
		}
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
		t.Errorf("stats: %+v (want 2 fenced attempts: one empty batch, one ingest)", stats)
	}
	// Two plan records, their plan_done and four grants.
	if n := walRecords.Load() - walBefore; n < 7 {
		t.Errorf("%d control WAL records appended, want at least 7", n)
	}
}

// TestBatchRenewsLease pins the one renewal there is, on the test clock: an
// accepted batch, empty or not, pushes its shard's expiry out by one TTL
// from now, so a claim just before the new expiry finds nothing and one
// just after re-issues the shard; an empty batch costs no journal fsync; a
// fenced batch renews nothing; and a batch for a shard already done still
// gets ShardDone, not campaign_closed, while the campaign is open.
func TestBatchRenewsLease(t *testing.T) {
	journalFsyncs := obs.Default().Histogram("gpufi_journal_fsync_seconds", "", nil)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const ttl = time.Minute
	clk := &testClock{base: time.Now()}
	co := NewCoordinator(st, Options{ShardsPerCampaign: 2, LeaseTTL: ttl})
	co.now = clk.now
	runCh := make(chan error, 1)
	go func() {
		_, err := co.Run(context.Background(), "renew", vaSpec(10), nil)
		runCh <- err
	}()
	expiry := func(sid string) time.Time {
		co.mu.Lock()
		defer co.mu.Unlock()
		return co.campaigns["renew"].tab.shards[sid].expiry
	}
	empty := func(sh *Shard, lease string) (*BatchResult, error) {
		t.Helper()
		syncs := journalFsyncs.Count()
		res, err := co.Ingest(expBatch(sh, lease, nil))
		if n := journalFsyncs.Count() - syncs; n != 0 {
			t.Fatalf("an empty batch cost %d journal fsyncs, want 0", n)
		}
		return res, err
	}

	sh0, sh1 := claimSoon(t, co, "w1"), claimSoon(t, co, "w1")
	clk.advance(ttl - 10*time.Second)
	for _, sh := range []*Shard{sh0, sh1} {
		if res, err := empty(sh, sh.Lease); err != nil || res.Accepted != 0 || res.ShardDone {
			t.Fatalf("empty batch on %s: %+v %v", sh.ID, res, err)
		}
		if got, want := expiry(sh.ID), clk.now().Add(ttl); !got.Equal(want) {
			t.Fatalf("%s expires at now%+v after an empty batch, want now+%v", sh.ID, got.Sub(clk.now()), ttl)
		}
	}
	clk.advance(ttl - time.Millisecond)
	if sh, err := co.Claim("w2"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("claim just before the renewed expiry: %+v %v, want ErrNoWork", sh, err)
	}
	clk.advance(2 * time.Millisecond)
	heir := claimSoon(t, co, "w2")
	if heir.ID != sh0.ID || heir.Epoch != sh0.Epoch+1 {
		t.Fatalf("claim just after the renewed expiry: %s at epoch %d, want %s re-issued", heir.ID, heir.Epoch, sh0.ID)
	}

	// The fenced straggler renews nothing.
	before := expiry(heir.ID)
	clk.advance(time.Second)
	if _, err := empty(sh0, sh0.Lease); !errors.Is(err, ErrLeaseFenced) {
		t.Fatalf("empty batch under the fenced lease: %v, want ErrLeaseFenced", err)
	}
	if after := expiry(heir.ID); !after.Equal(before) {
		t.Fatalf("a fenced batch moved the heir's expiry by %v", after.Sub(before))
	}

	// A done shard of an open campaign: a late batch, empty or a replay,
	// hears ShardDone.
	exps := execShard(t, heir)
	if res, err := co.Ingest(expBatch(heir, heir.Lease, exps)); err != nil || !res.ShardDone || res.CampaignDone {
		t.Fatalf("the heir's batch: %+v %v", res, err)
	}
	if res, err := empty(heir, heir.Lease); err != nil || !res.ShardDone {
		t.Fatalf("empty batch for a done shard: %+v %v, want ShardDone", res, err)
	}
	if res, err := co.Ingest(expBatch(heir, heir.Lease, exps)); err != nil || !res.ShardDone || res.Duplicates != len(exps) {
		t.Fatalf("replay for a done shard: %+v %v, want ShardDone and all duplicates", res, err)
	}
	co.Revoke("renew")
	if err := <-runCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after revoke: %v", err)
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
	if _, err := co.Ingest(expBatch(sh, sh.Lease, nil)); !errors.Is(err, ErrCampaignClosed) {
		t.Fatalf("empty batch after revoke: want ErrCampaignClosed, got %v", err)
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
// re-coordinated, and only the journal's gaps are sharded out again, to run
// at the worker count of the resuming call, not the stored one.
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
	spec := vaSpec(10)
	spec.Workers = 1
	runCh := make(chan error, 1)
	go func() {
		res, err := co2.Run(context.Background(), "resume-test", spec, nil)
		if err == nil && len(res.Exps) != 10 {
			err = errors.New("merged result incomplete")
		}
		runCh <- err
	}()
	var pending int
	for {
		sh := claimSoon(t, co2, "w2")
		if sh.Spec.Workers != 1 {
			t.Errorf("shard %s runs at %d workers, the resuming call asked for 1", sh.ID, sh.Spec.Workers)
		}
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

// TestCoordinatorSpecMismatchLeavesJournalAlone: a campaign whose id is
// taken by a different spec is refused before the coordinator opens
// anything, so the owner's torn journal tail — which only its own resume
// may cut — is still there byte for byte.
func TestCoordinatorSpecMismatchLeavesJournalAlone(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := st.Create("taken", vaSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), "taken", "journal.jsonl")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteString(`{"type":"exp","id":0,"cyc`)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	co := NewCoordinator(st, Options{ShardsPerCampaign: 2, LeaseTTL: time.Minute})
	other := vaSpec(10)
	other.Seed++
	if _, err := co.Run(context.Background(), "taken", other, nil); err == nil {
		t.Fatal("id reuse with a different seed accepted")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Errorf("refused run changed the other campaign's journal (%d bytes, was %d): %v", len(after), len(before), err)
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
	if _, err := co.Ingest(expBatch(shards[0], shards[0].Lease, nil)); !errors.Is(err, ErrCampaignClosed) {
		t.Fatalf("late empty batch: want ErrCampaignClosed, got %v", err)
	}
	if _, err := co.Claim("w9"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("claim after finalize: want ErrNoWork, got %v", err)
	}
}

// TestRestoredLeaseReclaimedByItsHolder pins the one early re-issue: a
// worker claims only when it holds no shard, so a worker that claims while
// the control WAL's replay has restored a lease to it has lost that shard
// with the last coordinator. It gets the shard back at once, at the next
// epoch, and the old token is fenced; any other worker still waits the
// restored lease out. A lease granted in this lifetime is never taken back
// early, even by its own holder, so a worker abandoning a shard cannot
// re-claim it in a loop of grant fsyncs.
func TestRestoredLeaseReclaimedByItsHolder(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clk := &testClock{base: time.Now()}
	start := func() (*Coordinator, chan error) {
		co := NewCoordinator(st, Options{ShardsPerCampaign: 1, LeaseTTL: time.Minute})
		co.now = clk.now
		co.MarkRecovering("restored")
		runCh := make(chan error, 1)
		go func() {
			_, err := co.Run(context.Background(), "restored", vaSpec(10), nil)
			runCh <- err
		}()
		// Claims answer ErrRecovering until the shard table is up.
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			co.mu.Lock()
			up := !co.recovering["restored"]
			co.mu.Unlock()
			if up {
				return co, runCh
			}
			if time.Now().After(deadline) {
				t.Fatal("the campaign's shard table never came up")
			}
		}
	}

	co1, run1 := start()
	old, err := co1.Claim("w1")
	if err != nil || old.Epoch != 1 {
		t.Fatalf("first claim: %+v %v", old, err)
	}
	if sh, err := co1.Claim("w1"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("w1 took back a lease of this lifetime: %+v %v, want ErrNoWork", sh, err)
	}
	co1.Crash()
	<-run1

	co2, run2 := start()
	if sh, err := co2.Claim("w2"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("w2 claimed under w1's restored lease: %+v %v, want ErrNoWork", sh, err)
	}
	heir, err := co2.Claim("w1")
	if err != nil || heir.ID != old.ID || heir.Epoch != old.Epoch+1 || heir.Lease == old.Lease {
		t.Fatalf("w1's claim over its restored lease: %+v %v, want %s at epoch %d", heir, err, old.ID, old.Epoch+1)
	}
	for _, w := range []string{"w2", "w1"} {
		if sh, err := co2.Claim(w); !errors.Is(err, ErrNoWork) {
			t.Fatalf("%s claimed the re-issued shard: %+v %v, want ErrNoWork", w, sh, err)
		}
	}
	if _, err := co2.Ingest(expBatch(old, old.Lease, nil)); !errors.Is(err, ErrLeaseFenced) {
		t.Fatalf("a batch under the restored token: %v, want ErrLeaseFenced", err)
	}
	if _, err := co2.Ingest(expBatch(heir, heir.Lease, nil)); err != nil {
		t.Fatalf("a batch under the heir's token: %v", err)
	}
	co2.Revoke("restored")
	if err := <-run2; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after revoke: %v", err)
	}
}
