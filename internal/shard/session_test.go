package shard_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/store"
)

// TestSessionCarriesPrefixAcrossShards: one HTTP worker runs every shard of
// a campaign, in injection-cycle order, on one engine session. Its first
// shard starts the fault-free prefix and every later one continues it, and
// the merged journal and traces — the traced exp records cross the wire
// through encoding/json, the rest through the batch codec — are the library
// run's, record for record. A second campaign on the same worker starts a
// prefix of its own.
func TestSessionCarriesPrefixAcrossShards(t *testing.T) {
	c := startCluster(t, t.TempDir(), 8, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	done := startWorker(ctx, c, "w1", 16, nil)
	defer func() { cancel(); <-done }()

	for _, seed := range []int64{7, 8} {
		spec := store.Spec{App: "BP", GPU: "RTX2060", Kernel: "bp_adjust", Structure: "regfile",
			Runs: 400, Seed: seed, Workers: 2, Trace: seed == 7}
		id := spec.ID()
		want, wantTraces, _ := library(t, spec)
		before := core.EngineStats()
		submit(t, c.ts.URL, map[string]any{"id": id, "app": spec.App, "gpu": spec.GPU,
			"kernel": spec.Kernel, "structure": spec.Structure, "runs": spec.Runs,
			"seed": spec.Seed, "workers": spec.Workers, "trace": spec.Trace})
		waitDone(t, c.ts.URL, id, 2*time.Minute)
		after := core.EngineStats()

		shards := 0
		for _, st := range c.co.Statuses() {
			if st.Campaign == id {
				shards++
			}
		}
		started := after.PrefixesStarted - before.PrefixesStarted
		continued := after.PrefixesContinued - before.PrefixesContinued
		if shards < 3 || started != 1 || continued != int64(shards-1) {
			t.Errorf("seed %d: %d shards started %d prefixes and continued %d, want 1 and %d",
				seed, shards, started, continued, shards-1)
		}
		sharded, dups := journalRecords(t, c.st, id)
		if dups != 0 {
			t.Errorf("seed %d: %d duplicate exp records", seed, dups)
		}
		diffJournals(t, id, sharded, want)
		if spec.Trace {
			got, want := traceRecords(t, c.st, id), wantTraces
			if len(got) != spec.Runs || len(got) != len(want) {
				t.Errorf("seed %d: %d traces sharded, %d local, want %d", seed, len(got), len(want), spec.Runs)
			}
			for id, line := range want {
				if !bytes.Equal(got[id], line) {
					t.Errorf("seed %d: trace of experiment %d differs", seed, id)
				}
			}
		}
	}
}
