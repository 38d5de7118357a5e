package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"time"

	"gpufi/internal/avf"
	"gpufi/internal/core"
	"gpufi/internal/obs"
	"gpufi/internal/service"
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
// explanation benchCampaigns attaches.
func BenchmarkShardedCampaign(b *testing.B) {
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
	benchCampaigns(b, c.st, c.ts.URL)
}

// BenchmarkLocalCampaign runs BenchmarkShardedCampaign's campaigns through
// a local node: service.New without a Coordinator, two runners and two
// in-process shard workers that call the coordinator the service built,
// with no HTTP and no JSON between them. The gap between the two is the
// cost of the wire alone.
func BenchmarkLocalCampaign(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	srv := service.New(st, service.Options{Workers: 2})
	if _, err := srv.Start(nil); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()
	benchCampaigns(b, st, ts.URL)
}

// benchCampaigns submits the campaign-late point as b.N campaigns, one at a
// time, to the node serving base over st, and reports how busy the CPUs
// were, how many journal batches and fsync waits a campaign cost, how many
// span records it wrote, how many fault-free prefixes its shards started
// and how long they took to their shards' first captures, how long the
// coordinator took to decode a record (over HTTP: the ingest spans'
// decode_ns), and what a finished campaign leaves on the heap. It
// fails when a campaign costs more fsyncs than its batches and control
// records allow — a batch is acknowledged after one journal fsync, with the
// span log synced just ahead of it — when it writes a span per experiment
// rather than per cluster, when its shards start more than a prefix per
// worker and generation, or when it leaves more behind than a tombstone.
func benchCampaigns(b *testing.B, st *store.Store, base string) {
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

	campaign := func(id string) {
		raw, _ := json.Marshal(struct {
			ID string `json:"id"`
			store.Spec
		}{id, spec})
		var body map[string]any
		json.Unmarshal(raw, &body)
		submit(b, base, body)
		var st struct {
			State  string     `json:"state"`
			Error  string     `json:"error"`
			Counts avf.Counts `json:"counts"`
		}
		for st.State != "done" {
			resp, err := http.Get(base + "/v1/campaigns/" + id)
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
	// batches is the node's journal-batch count, from its /metrics.
	batches := func() float64 {
		var m map[string]any
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			b.Fatal(err)
		}
		n, ok := m["shard_batches"].(float64)
		if !ok {
			b.Fatalf("/metrics has no shard_batches: %v", m["shard_batches"])
		}
		return n
	}

	// spanBytes reads a campaign's spans.jsonl.
	spanBytes := func(id string) []byte {
		f, err := st.OpenSpans(id)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		raw, err := io.ReadAll(f)
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}

	walRecords := obs.Default().Counter("gpufi_shard_wal_records_total", "")
	campaign("bench-warm") // profiles cached, device pool and heap at their working size
	// The process flight ring keeps the last obs.DefaultFlightSize span
	// records. A campaign writes a few hundred, so a ring still filling up
	// would be heap charged to the campaigns below: fill it first with
	// copies of the warm campaign's records, each as much heap as a new one,
	// under traces nobody reads.
	warm, err := obs.ReadSpans(bytes.NewReader(spanBytes("bench-warm")))
	if err != nil || len(warm) == 0 {
		b.Fatalf("warm campaign's span log: %d records, %v", len(warm), err)
	}
	for n := 0; n < obs.DefaultFlightSize; n++ {
		rec := warm[n%len(warm)]
		rec.Trace, rec.Attrs = obs.NewTraceID().String(), maps.Clone(rec.Attrs)
		obs.EmitRecord(rec)
	}
	heap0, fsync0, batches0, wal0, cpu0 := liveHeap(), fsyncCount(), batches(), walRecords.Load(), cpuTime()
	prefixes0 := core.EngineStats().PrefixesStarted
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		campaign(fmt.Sprintf("bench-%d", i))
	}
	wall, cpu := b.Elapsed(), cpuTime()-cpu0
	n := float64(b.N)
	prefixes := float64(core.EngineStats().PrefixesStarted-prefixes0) / n
	spans := 0
	var decodeNS, decoded, firstCaptureUS float64
	for i := 0; i < b.N; i++ {
		raw := spanBytes(fmt.Sprintf("bench-%d", i))
		spans += bytes.Count(raw, []byte("\n"))
		recs, err := obs.ReadSpans(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range recs {
			if rec.Name == "engine.snapshot" && rec.Attrs["cluster"] == "0" {
				firstCaptureUS += float64(rec.DurUS)
			}
			if ns, err := strconv.ParseFloat(rec.Attrs["decode_ns"], 64); rec.Name == "coordinator.ingest" && err == nil {
				records, _ := strconv.ParseFloat(rec.Attrs["records"], 64)
				decodeNS, decoded = decodeNS+ns, decoded+records
			}
		}
	}
	perExp := float64(spans) / n / float64(spec.Runs)
	fsyncs := float64(fsyncCount()-fsync0) / n
	heapMB := (liveHeap() - heap0) / n / (1 << 20)
	posts := (batches() - batches0) / n
	ctl := float64(walRecords.Load()-wal0) / n
	b.ReportMetric(float64(spec.Runs)*n/wall.Seconds(), "exps/s")
	b.ReportMetric(cpu.Seconds()/wall.Seconds(), "busy-cpus")
	b.ReportMetric(posts, "batches/campaign")
	b.ReportMetric(fsyncs, "fsyncs/campaign")
	b.ReportMetric(heapMB, "heap-mb/campaign")
	b.ReportMetric(perExp, "spans/exp")
	b.ReportMetric(prefixes, "prefixes/campaign")
	b.ReportMetric(firstCaptureUS/1e3/n, "first-capture-ms/campaign")
	if decoded > 0 {
		b.ReportMetric(decodeNS/decoded, "decode-ns/record")
	}
	// Two per batch (span log, then journal), one per control record (plans
	// and grants), and the header's and the close's pairs plus the span
	// log's own close.
	if bound := 2*posts + ctl + 5; fsyncs > bound {
		b.Errorf("%.0f fsyncs per campaign, want at most %.0f for %.1f batches and %.1f control records: a batch costs more than one journal sync",
			fsyncs, bound, posts, ctl)
	}
	// Each worker's shards of a generation arrive in injection-cycle order,
	// so its session carries one prefix through all of them; these fixed-N
	// campaigns are one generation each.
	if generations, workers := 1.0, 2.0; prefixes > workers*generations {
		b.Errorf("%.1f prefixes per campaign, want at most %.0f: a worker's shards of one generation restart the prefix",
			prefixes, workers*generations)
	}
	if perExp > 0.25 {
		b.Errorf("%.2f span records per experiment, want at most 0.25: the engine traces experiments, not clusters", perExp)
	}
	if b.N >= 10 && heapMB > 0.2 { // over fewer campaigns the slope is what the last one has not let go of yet
		b.Errorf("%.2f MB of live heap per finished campaign, want at most 0.2: a closed campaign keeps more than its tombstone", heapMB)
	}
}
