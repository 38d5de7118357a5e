package shard_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"syscall"
	"testing"
	"time"

	"gpufi/internal/avf"
	"gpufi/internal/core"
	"gpufi/internal/obs"
	"gpufi/internal/store"
)

// fsyncCount is every flush+fsync the store has timed so far: journal,
// span log and control WAL.
func fsyncCount() int64 {
	var n int64
	for _, name := range []string{"gpufi_journal_fsync_seconds", "gpufi_span_fsync_seconds", "gpufi_shard_wal_fsync_seconds"} {
		n += obs.Default().Histogram(name, "", nil).Count()
	}
	return n
}

// liveHeap is the bytes of reachable heap objects: two collections, so
// what the sync.Pools gave up on the first is gone too.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// BenchmarkShardedCampaign mirrors the ledger's service-sharded workload —
// the campaign-late point (BP / bp_adjust / regfile, last invocation, 5,000
// runs) through store + coordinator + HTTP + two one-thread shard workers,
// 8 shards, batches of 64, traced like every service campaign — with the
// explanation attached: how busy the two CPUs were, how many POSTs and
// fsync waits a campaign cost, and what a finished campaign leaves on the
// heap. It fails when a campaign costs more fsyncs than one clock per
// campaign allows, or leaves more behind than a tombstone.
func BenchmarkShardedCampaign(b *testing.B) {
	spec := store.Spec{App: "BP", GPU: "RTX2060", Kernel: "bp_adjust", Structure: "regfile",
		Runs: 5000, Seed: 7, Workers: 1}
	cfg, err := spec.Config()
	if err != nil {
		b.Fatal(err)
	}
	prof, err := core.ProfileApp(nil, cfg.App, cfg.GPU)
	if err != nil {
		b.Fatal(err)
	}
	spec.Invocation = prof.Kernels[spec.Kernel].Invocations

	c := startCluster(b, b.TempDir(), 8, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	var workers []chan struct{}
	for _, name := range []string{"w1", "w2"} {
		workers = append(workers, startWorker(ctx, c, name, 64, nil))
	}
	defer func() {
		cancel()
		for _, done := range workers {
			<-done
		}
	}()
	campaign := func(id string) {
		raw, _ := json.Marshal(struct {
			ID string `json:"id"`
			store.Spec
		}{id, spec})
		var body map[string]any
		json.Unmarshal(raw, &body)
		submit(b, c.ts.URL, body)
		var st struct {
			State  string     `json:"state"`
			Error  string     `json:"error"`
			Counts avf.Counts `json:"counts"`
		}
		for st.State != "done" {
			resp, err := http.Get(c.ts.URL + "/v1/campaigns/" + id)
			if err != nil {
				b.Fatal(err)
			}
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if st.State == "failed" || st.State == "cancelled" {
				b.Fatalf("campaign %s ended %s: %s", id, st.State, st.Error)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if st.Counts.Total() != spec.Runs {
			b.Fatalf("campaign %s counted %d of %d experiments", id, st.Counts.Total(), spec.Runs)
		}
	}
	cpuTime := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			b.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}

	campaign("bench-warm") // profiles cached, device pool and heap at their working size
	heap0, fsync0, batches0, cpu0 := liveHeap(), fsyncCount(), c.co.Stats().Batches, cpuTime()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		campaign(fmt.Sprintf("bench-%d", i))
	}
	wall, cpu := b.Elapsed(), cpuTime()-cpu0
	n := float64(b.N)
	fsyncs := float64(fsyncCount()-fsync0) / n
	heapMB := (liveHeap() - heap0) / n / (1 << 20)
	b.ReportMetric(float64(spec.Runs)*n/wall.Seconds(), "exps/s")
	b.ReportMetric(cpu.Seconds()/wall.Seconds(), "busy-cpus")
	b.ReportMetric(float64(c.co.Stats().Batches-batches0)/n, "batches/campaign")
	b.ReportMetric(fsyncs, "fsyncs/campaign")
	b.ReportMetric(heapMB, "heap-mb/campaign")
	if fsyncs > 340 {
		b.Errorf("%.0f fsyncs per campaign, want at most 340: something besides the journal keeps a durability clock", fsyncs)
	}
	if b.N >= 10 && heapMB > 0.2 { // over fewer campaigns the slope is what the last one has not let go of yet
		b.Errorf("%.2f MB of live heap per finished campaign, want at most 0.2: a closed campaign keeps more than its tombstone", heapMB)
	}
}
