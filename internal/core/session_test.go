package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/sim"
)

// sessionPoint is a campaign a session runs in shards: BP's bp_adjust over
// every invocation, so that the shards' clusters lie in different launches
// and a continued prefix carries on across host calls.
func sessionPoint(t *testing.T, st sim.Structure, trace bool) (*CampaignConfig, *Profile) {
	t.Helper()
	app, err := bench.ByName("BP")
	if err != nil {
		t.Fatal(err)
	}
	gpu := config.RTX2060()
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	return &CampaignConfig{App: app, GPU: gpu, Kernel: "bp_adjust", Structure: st,
		Runs: 400, Bits: 1, Seed: 11, Workers: 2, Trace: trace}, prof
}

// libraryJournal is what RunCampaign journals for cfg.
func libraryJournal(t *testing.T, cfg *CampaignConfig, prof *Profile) *journalRecorder {
	t.Helper()
	rec := newJournalRecorder()
	c := *cfg
	c.Sink = rec.record
	if _, err := RunCampaign(nil, &c, prof); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestSessionCarriesThePrefixOn runs a campaign's shards on one session, the
// way a shard worker does. In injection-cycle order every shard after the
// first continues the prefix the one before it parked; in reverse order every
// shard lies behind it and starts its own. Either way each experiment's
// journal and trace bytes are the library's.
func TestSessionCarriesThePrefixOn(t *testing.T) {
	for _, c := range []struct {
		name  string
		st    sim.Structure
		trace bool
	}{{"regfile", sim.StructRegFile, false}, {"l1d traced", sim.StructL1D, true}} {
		t.Run(c.name, func(t *testing.T) {
			cfg, prof := sessionPoint(t, c.st, c.trace)
			want := libraryJournal(t, cfg, prof)
			shards, err := PlanShards(cfg, prof, 6)
			if err != nil {
				t.Fatal(err)
			}
			if len(shards) < 3 {
				t.Fatalf("%d shards, the test needs three or more", len(shards))
			}
			for _, backward := range []bool{false, true} {
				sess, err := NewSession(cfg, prof)
				if err != nil {
					t.Fatal(err)
				}
				got := newJournalRecorder()
				before := EngineStats()
				for k := range shards {
					if backward {
						k = len(shards) - 1 - k
					}
					if _, err := sess.Run(nil, shards[k], got.record); err != nil {
						t.Fatal(err)
					}
				}
				sess.Close()
				after := EngineStats()
				started := after.PrefixesStarted - before.PrefixesStarted
				continued := after.PrefixesContinued - before.PrefixesContinued
				wantStarted, wantContinued := int64(1), int64(len(shards)-1)
				if backward {
					wantStarted, wantContinued = int64(len(shards)), 0
				}
				if started != wantStarted || continued != wantContinued {
					t.Errorf("backward=%v: %d shards started %d prefixes and continued %d, want %d and %d",
						backward, len(shards), started, continued, wantStarted, wantContinued)
				}
				sameBytes(t, c.name, [2]string{"library", "session"}, want, got)
			}
		})
	}
}

// TestSessionRunIndices: a session runs exactly the indices it is handed,
// each once, whatever their order, repeats or range.
func TestSessionRunIndices(t *testing.T) {
	cfg, prof := sessionPoint(t, sim.StructRegFile, false)
	want := libraryJournal(t, cfg, prof)
	sess, err := NewSession(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got := newJournalRecorder()
	seen := map[int]int{}
	sink := func(e Experiment) error {
		seen[e.ID]++
		return got.record(e)
	}
	res, err := sess.Run(nil, []int{7, 3, -1, 7, 400, 3, 12}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[3] != 1 || seen[7] != 1 || seen[12] != 1 || res.Counts.Total() != 3 {
		t.Fatalf("ran %v (counts %+v), want 3, 7 and 12 once each", seen, res.Counts)
	}
	for id, b := range got.recs {
		if string(b) != string(want.recs[id]) {
			t.Errorf("experiment %d: %s, the library journals %s", id, b, want.recs[id])
		}
	}
}

// TestSessionPrefixPanicEndsTheRun: a panic on the prefix goroutine ends the
// run with an error instead of the process, and the session starts the next
// run from cycle 0. Re-running the failed shard, as the lease protocol
// re-issues an abandoned one, finishes the campaign with the library's
// journal.
func TestSessionPrefixPanicEndsTheRun(t *testing.T) {
	cfg, prof := sessionPoint(t, sim.StructRegFile, false)
	want := libraryJournal(t, cfg, prof)
	shards, err := PlanShards(cfg, prof, 4)
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Bool
	defer SetPrefixHook(func(n int) {
		if n == 1 && fired.CompareAndSwap(false, true) {
			panic("injected prefix fault")
		}
	})()
	sess, err := NewSession(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got := newJournalRecorder()
	failures := 0
	for queue := shards; len(queue) > 0; {
		idxs := queue[0]
		queue = queue[1:]
		if _, err := sess.Run(nil, idxs, got.record); err != nil {
			if !strings.Contains(err.Error(), "panicked: injected prefix fault") {
				t.Fatalf("run failed with %v, want the prefix's panic", err)
			}
			failures++
			queue = append(queue, idxs)
		}
	}
	if failures != 1 {
		t.Fatalf("%d runs failed, want the one whose prefix panicked", failures)
	}
	sameBytes(t, "after a prefix panic", [2]string{"library", "session"}, want, got)
}
