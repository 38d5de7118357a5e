package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpufi/internal/core"
)

// vaSpec bounds Workers so a cancellation mid-campaign cannot be outrun
// by a wide machine finishing every in-flight experiment anyway.
func vaSpec(runs int, seed int64) Spec {
	return Spec{App: "VA", GPU: "RTX2060", Kernel: "va_add",
		Structure: "regfile", Runs: runs, Seed: seed, Workers: 2}
}

// TestKillAndResume is the store's acceptance test: a campaign cancelled
// mid-run and then resumed must leave a merged journal whose counts are
// bit-identical to an uninterrupted run with the same seed.
func TestKillAndResume(t *testing.T) {
	spec := vaSpec(40, 7)
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := core.ProfileApp(nil, cfg.App, cfg.GPU)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: uninterrupted durable run.
	refStore, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runCampaign(nil, refStore, "", spec, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Counts.Total() != 40 {
		t.Fatalf("reference run incomplete: %+v", ref.Counts)
	}

	// Interrupted run: cancel after 10 experiments have been journaled.
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.BatchSize = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	partial, runErr := runCampaign(ctx, st, "kill", spec, prof, func(core.Experiment) {
		if seen++; seen == 10 {
			cancel()
		}
	})
	if runErr == nil {
		t.Fatal("cancelled run reported success")
	}
	if partial == nil || partial.Counts.Total() == 0 || partial.Counts.Total() >= 40 {
		t.Fatalf("partial result implausible: %+v", partial)
	}
	firstBatch := partial.Counts.Total()

	// The journal on disk holds exactly the experiments the partial
	// result reported.
	info, err := st.Inspect("kill")
	if err != nil {
		t.Fatal(err)
	}
	if info.Done || info.Completed != firstBatch {
		t.Fatalf("on-disk state after kill: %+v, want %d completed", info, firstBatch)
	}

	// Resume with a fresh context: the remaining experiments run and the
	// merged result matches the reference bit for bit.
	resumed, err := runCampaign(nil, st, "kill", spec, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Counts != ref.Counts {
		t.Errorf("resumed counts %+v != uninterrupted %+v", resumed.Counts, ref.Counts)
	}
	if len(resumed.Exps) != 40 {
		t.Errorf("merged journal has %d experiments", len(resumed.Exps))
	}
	seenIDs := map[int]bool{}
	for _, e := range resumed.Exps {
		if seenIDs[e.ID] {
			t.Errorf("experiment %d journaled twice", e.ID)
		}
		seenIDs[e.ID] = true
	}

	// The journal file itself re-parses to the same counts.
	f, err := st.OpenLog("kill")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	logs, err := ParseLog(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 || logs[0].Counts != ref.Counts {
		t.Errorf("journal parse: %d campaigns, counts %+v, want %+v",
			len(logs), logs[0].Counts, ref.Counts)
	}

	// The campaign is complete: a further Run is a no-op returning the
	// stored result.
	again, err := runCampaign(nil, st, "kill", spec, prof, func(core.Experiment) {
		t.Error("completed campaign re-ran an experiment")
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.Counts != ref.Counts {
		t.Errorf("re-run of done campaign: %+v", again.Counts)
	}
}

// TestResumeConfigFromOlderBuild: a campaign directory whose config record
// still carries "legacy_replay": true and "parallel_cores": 4 — written by a
// build that had the full-replay engine and the parallel core stepper — must
// open, match the submitted spec, resume, and
// finish with a journal byte-identical to a fresh run of the same spec.
// One worker keeps completion order, and so journal bytes, deterministic.
func TestResumeConfigFromOlderBuild(t *testing.T) {
	spec := vaSpec(20, 7)
	spec.Workers = 1
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := core.ProfileApp(nil, cfg.App, cfg.GPU)
	if err != nil {
		t.Fatal(err)
	}
	journalBytes := func(st *Store) []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(st.Dir(), "old", journalFile))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	fresh, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCampaign(nil, fresh, "old", spec, prof, nil); err != nil {
		t.Fatal(err)
	}

	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	if _, err := runCampaign(ctx, st, "old", spec, prof, func(core.Experiment) {
		if seen++; seen == 6 {
			cancel()
		}
	}); err == nil {
		t.Fatal("cancelled run reported success")
	}
	cp := filepath.Join(st.Dir(), "old", configFile)
	raw, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	rec["legacy_replay"] = true
	rec["parallel_cores"] = 4
	if raw, err = json.MarshalIndent(rec, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cp, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := st.Resume("old")
	if err != nil {
		t.Fatalf("config record of an older build does not open: %v", err)
	}
	if !SameSpec(c.Spec, spec) {
		t.Errorf("stored spec %+v no longer matches the submitted one", c.Spec)
	}
	if n := len(c.CompletedIDs()); n != 6 {
		t.Errorf("resumed with %d journaled experiments, want 6", n)
	}
	c.Close()
	if _, err := runCampaign(nil, st, "old", spec, prof, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := journalBytes(st), journalBytes(fresh); !bytes.Equal(got, want) {
		t.Errorf("resumed journal differs from a fresh run:\n got: %s\nwant: %s", got, want)
	}
}

// TestRunSpecMismatch: reusing an id with a different campaign point must
// be refused, not silently merged.
func TestRunSpecMismatch(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := vaSpec(6, 1)
	cfg, _ := spec.Config()
	prof, err := core.ProfileApp(nil, cfg.App, cfg.GPU)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCampaign(nil, st, "point", spec, prof, nil); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seed = 99
	if _, err := runCampaign(nil, st, "point", other, prof, nil); err == nil {
		t.Error("id reuse with different seed accepted")
	}
}

// tornCampaign creates campaign id with spec and leaves its journal with a
// torn final record, the way a crash mid-append does, returning the
// journal's path. Only the campaign's own resume may cut that tail.
func tornCampaign(t *testing.T, st *Store, id string, spec Spec) string {
	t.Helper()
	c, err := st.Create(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), id, journalFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(`{"type":"exp","id":0,"cyc`); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunSpecMismatchLeavesJournalAlone: a refused id reuse must not touch
// the campaign that owns the id — not even the torn tail its own resume
// would cut.
func TestRunSpecMismatchLeavesJournalAlone(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := vaSpec(6, 1)
	path := tornCampaign(t, st, "point", spec)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seed = 99
	if _, err := runCampaign(nil, st, "point", other, nil, nil); err == nil {
		t.Fatal("id reuse with different seed accepted")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Errorf("refused run changed the other campaign's journal (%d bytes, was %d): %v", len(after), len(before), err)
	}
}

// TestStoreHousekeeping covers Create/Resume/List/Unfinished/cancellation
// marker plumbing without running any simulations.
func TestStoreHousekeeping(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := vaSpec(5, 2)
	c, err := st.Create("a", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(core.Experiment{ID: 0, Effect: "Masked"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create("a", spec); err == nil {
		t.Error("duplicate Create accepted")
	}
	if _, err := st.Resume("missing"); err == nil {
		t.Error("Resume of unknown id accepted")
	}
	if st.Exists("../evil") {
		t.Error("path traversal id accepted")
	}

	ids, err := st.List()
	if err != nil || len(ids) != 1 || ids[0] != "a" {
		t.Fatalf("List = %v, %v", ids, err)
	}
	open, err := st.Unfinished()
	if err != nil || len(open) != 1 {
		t.Fatalf("Unfinished = %v, %v", open, err)
	}
	if err := st.MarkCancelled("a"); err != nil {
		t.Fatal(err)
	}
	open, _ = st.Unfinished()
	if len(open) != 0 {
		t.Errorf("cancelled campaign still resumable: %v", open)
	}
	if err := st.ClearCancelled("a"); err != nil {
		t.Fatal(err)
	}
	open, _ = st.Unfinished()
	if len(open) != 1 {
		t.Errorf("ClearCancelled did not restore: %v", open)
	}

	r, err := st.Resume("a")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.CompletedIDs(); len(got) != 1 || got[0] != 0 {
		t.Errorf("CompletedIDs = %v", got)
	}
}

// TestFinishSyncsJournalFirst holds Finish to its write order: the journal
// is synced and closed before the done record is written. The journal's
// file is closed under a campaign that still holds unsynced appends, so
// that sync fails; Finish must fail with it, and the campaign must read as
// not done. Written the other way round, the done record would count
// experiments the journal lost, an image readState refuses with
// ErrJournalBehind.
func TestFinishSyncsJournalFirst(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := st.Create("order", vaSpec(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	res := &core.CampaignResult{}
	for i := 0; i < 3; i++ {
		exp := core.Experiment{ID: i, Effect: "Masked"}
		if err := c.Append(exp); err != nil {
			t.Fatal(err)
		}
		res.Exps = append(res.Exps, exp)
	}
	_, _, ctl, err := st.OpenControlWAL("order")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	c.journal.f.Close() // the batched appends can no longer reach the disk
	if err := c.Finish(res, ctl); err == nil {
		t.Fatal("Finish succeeded over a journal it could not sync")
	}
	if info, err := st.Inspect("order"); err != nil || info.Done || info.Completed != 0 {
		t.Fatalf("after the failed Finish: %+v, %v; want a campaign not done, its journal empty", info, err)
	}
}

// TestLegacyMarkersRefused: a campaign directory an earlier build wrote,
// with a done.json or cancelled marker file, is refused by name, not read
// as this build's state; Unfinished still lists it, beside the error, so
// that a service fails it in the open.
func TestLegacyMarkersRefused(t *testing.T) {
	for _, name := range []string{"done.json", "cancelled"} {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c, err := st.Create("old", vaSpec(3, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(st.Dir(), "old", name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Inspect("old"); !errors.Is(err, ErrLegacyMarkers) || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Inspect says %v, want ErrLegacyMarkers naming the file", name, err)
		}
		if open, err := st.Unfinished(); !errors.Is(err, ErrLegacyMarkers) || len(open) != 1 {
			t.Errorf("%s: Unfinished = %v, %v; want the campaign listed beside ErrLegacyMarkers", name, open, err)
		}
	}
}
