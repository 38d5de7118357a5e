package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"gpufi"
	"gpufi/internal/cache"
	"gpufi/internal/config"
	"gpufi/internal/core"
	"gpufi/internal/mem"
	"gpufi/internal/obs"
	"gpufi/internal/shard"
	"gpufi/internal/sim"
	"gpufi/internal/store"
)

// The probes time calls into each layer's public functions, from outside,
// on inputs taken from the workloads. They run only on the traced run and
// are the same on every workload, so a layer's cost can be read beside any
// end-to-end number. Each probe is a harness span of its layer.

// probeSizes are the probe dimensions (shrunk by the short smoke test).
type probeSizes struct {
	goldenScale, goldenPasses int
	reps                      int // repetitions of the millisecond-scale probes
	streamOps                 int // accesses per cache/memory address stream
	campaignRuns              int // experiments of the reference campaign
	journalRecs               int // records of the journal the store probes write
	// dirtyPages and touchedLines are what one campaign-late experiment
	// leaves for its vessel's restore to undo: about 90 units per restore
	// (COWPagesCopied / COWRestores), most of them cache lines.
	dirtyPages, touchedLines int
}

func fullProbeSizes() probeSizes {
	return probeSizes{goldenScale: 4, goldenPasses: 2, reps: 5, streamOps: 1 << 20,
		campaignRuns: 1024, journalRecs: 5000, dirtyPages: 8, touchedLines: 80}
}

func shortProbeSizes() probeSizes {
	return probeSizes{goldenScale: 1, goldenPasses: 1, reps: 1, streamOps: 1 << 12,
		campaignRuns: 32, journalRecs: 64, dirtyPages: 8, touchedLines: 80}
}

// timeMedian runs fn reps times and returns the median duration in
// seconds.
func timeMedian(reps int, fn func()) float64 {
	var v []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		v = append(v, time.Since(start).Seconds())
	}
	return median(v)
}

// runProbes fills m with every probe metric.
func runProbes(ctx context.Context, rec *recorder, seed int64, ps probeSizes, tmp string, m map[string]float64) error {
	probe := func(layer, name string, fn func() error) error {
		_, end := rec.begin("", layer, name)
		defer end()
		if err := fn(); err != nil {
			return fmt.Errorf("probe %s: %v", name, err)
		}
		return nil
	}
	steps := []struct {
		layer, name string
		fn          func() error
	}{
		{"asm", "asm.assemble_all", func() error { return probeAsm(ps, m) }},
		{"sim", "sim.golden", func() error { return probeGolden(ctx, ps, m) }},
		{"sim", "sim.snapshot", func() error { return probeSnapshot(ps, m) }},
		{"cache", "cache.streams", func() error { return probeCache(ps, m) }},
		{"mem", "mem.streams", func() error { return probeMem(ps, m) }},
		{"core", "core.profile_plan", func() error { return probeCore(ctx, seed, ps, m) }},
		{"obs", "obs.instruments", func() error { probeObs(ps, m); return nil }},
		{"store", "store.cluster", func() error { return probeCluster(ctx, seed, ps, tmp, m) }},
	}
	for _, s := range steps {
		if err := probe(s.layer, s.name, s.fn); err != nil {
			return err
		}
	}
	return nil
}

// probeAsm times building the twelve apps at scale 1: every kernel is
// assembled, plus input generation and the CPU references. The kernel
// sources are private to internal/bench, so assembly cannot be timed alone.
func probeAsm(ps probeSizes, m map[string]float64) error {
	m["asm.assemble_all_ms"] = timeMedian(ps.reps, func() { gpufi.Apps() }) * 1e3
	return nil
}

// probeGolden runs the twelve apps fault-free for the per-app simulator
// speed and the exact modelled statistics.
func probeGolden(ctx context.Context, ps probeSizes, m map[string]float64) error {
	w := &golden{scale: ps.goldenScale}
	if err := w.setup(ctx, nil); err != nil {
		return err
	}
	var last passResult
	for i := 0; i < ps.goldenPasses; i++ {
		last = w.pass(ctx, nil)
		if !last.ok {
			return errors.New(last.note)
		}
	}
	var cycles, winstr float64
	for _, app := range w.apps {
		m["sim.ns_per_winstr."+app.Name] = median(w.appNS[app.Name])
		cycles += float64(last.exact.Cycles[app.Name])
		winstr += float64(last.exact.Winstr[app.Name])
	}
	m["sim.cycles_total"] = cycles
	m["sim.winstr_total"] = winstr
	m["cache.l1d_hit_ratio"] = float64(w.l1dHits) / float64(max(w.l1dAcc, 1))
	m["cache.l2_hit_ratio"] = float64(w.l2Hits) / float64(max(w.l2Access, 1))
	return nil
}

// probeSnapshot stops a BP device at eight cycles inside the last
// bp_adjust invocation and, at each, forks fault-free suffix runs the way
// the engine does: a fresh vessel once, then the same vessel reforked.
// Capture and restore times are read from the simulator's own timers.
func probeSnapshot(ps probeSizes, m map[string]float64) error {
	gpu := gpufi.RTX2060()
	app, err := gpufi.AppByName(lateApp)
	if err != nil {
		return err
	}
	prof, err := gpufi.Profile(context.Background(), app, gpu)
	if err != nil {
		return err
	}
	ks := prof.Kernels[lateKernel]
	win := ks.Windows[len(ks.Windows)-1]
	const stops = 8
	var cycles []uint64
	for i := 1; i <= stops; i++ {
		cycles = append(cycles, win.Start+uint64(i)*(win.End-win.Start)/(stops+1))
	}

	g, err := sim.New(gpu)
	if err != nil {
		return err
	}
	g.EnableRecording()
	var vessel *sim.GPU
	var forkNew, refork, recycle []float64
	restoreUS := func(run func() error) (float64, error) {
		before := sim.SnapshotTimings()
		if err := run(); err != nil {
			return 0, err
		}
		after := sim.SnapshotTimings()
		return float64(after.RestoreNanos-before.RestoreNanos) / 1e3 /
			float64(max(after.Restores-before.Restores, 1)), nil
	}
	captures := sim.SnapshotTimings()
	seen := 0
	g.SnapshotAt(cycles, func(s *sim.Snapshot) error {
		seen++
		if vessel == nil {
			vessel = sim.NewFork(s)
			us, err := restoreUS(func() error { _, err := app.Run(vessel); return err })
			if err != nil {
				return err
			}
			forkNew = append(forkNew, us)
		}
		for i := 0; i < max(ps.reps, 2); i++ {
			vessel.Refork(s)
			us, err := restoreUS(func() error { _, err := app.Run(vessel); return err })
			if err != nil {
				return err
			}
			refork = append(refork, us)
		}
		start := time.Now()
		g.RecycleSnapshot(s)
		recycle = append(recycle, float64(time.Since(start).Nanoseconds())/1e3)
		if seen == len(cycles) {
			return sim.ErrReplayStop
		}
		return nil
	})
	if _, err := app.Run(g); err != nil && !errors.Is(err, sim.ErrReplayStop) {
		return err
	}
	if seen != len(cycles) {
		return fmt.Errorf("prefix stopped at %d of %d snapshot cycles", seen, len(cycles))
	}
	after := sim.SnapshotTimings()
	m["sim.snapshot_capture_us"] = float64(after.CaptureNanos-captures.CaptureNanos) / 1e3 /
		float64(max(after.Captures-captures.Captures, 1))
	m["sim.fork_new_us"] = median(forkNew)
	m["sim.refork_us"] = median(refork)
	m["sim.recycle_us"] = median(recycle)
	return nil
}

// flatBacking is a zero-latency next level for the cache probes.
type flatBacking struct{}

func (flatBacking) FetchLine(uint32, []byte) int { return 0 }
func (flatBacking) StoreLine(uint32, []byte) int { return 0 }
func (flatBacking) StoreWord(uint32, uint32) int { return 0 }
func (flatBacking) PeekWord(uint32) uint32       { return 0 }

// probeCache drives address streams through RTX 2060 L1D and L2 geometry:
// a stream that fits (hits), one that never does (misses), local-mode
// writes, and the delta restore of a vessel cache with touched lines.
func probeCache(ps probeSizes, m map[string]float64) error {
	gpu := config.RTX2060()
	var hit, miss, write []float64
	for _, geom := range []*config.Cache{gpu.L1D, gpu.L2} {
		line := uint32(geom.LineBytes)
		size := uint32(geom.Sets * geom.Ways * geom.LineBytes)
		perOp := func(fn func(i uint32)) float64 {
			start := time.Now()
			for i := uint32(0); i < uint32(ps.streamOps); i++ {
				fn(i)
			}
			return float64(time.Since(start).Nanoseconds()) / float64(ps.streamOps)
		}
		c := cache.New(geom, flatBacking{})
		for a := uint32(0); a < size/2; a += line { // warm half the cache
			c.AccessRead(a)
		}
		hit = append(hit, perOp(func(i uint32) { c.AccessRead((i * line) % (size / 2)) }))
		miss = append(miss, perOp(func(i uint32) { c.AccessRead(size + i*line) }))
		var werr error
		write = append(write, perOp(func(i uint32) {
			if _, _, err := c.AccessWrite((i*line)%(2*size), cache.ModeLocal); err != nil {
				werr = err
			}
		}))
		if werr != nil {
			return werr
		}
	}
	m["cache.read_hit_ns"] = median(hit)
	m["cache.read_miss_ns"] = median(miss)
	m["cache.write_ns"] = median(write)

	// A vessel L2 synced to its snapshot, dirtied by one experiment's worth
	// of lines, restored through the delta path.
	snap := cache.New(gpu.L2, flatBacking{})
	snap.StartTracking()
	vessel := snap.Clone(flatBacking{})
	vessel.SetSyncedTo(snap)
	line := uint32(gpu.L2.LineBytes)
	var restore []float64
	for r := 0; r < max(ps.reps*20, 20); r++ {
		for i := 0; i < ps.touchedLines; i++ {
			vessel.AccessRead(uint32(r*ps.touchedLines+i) * line)
		}
		start := time.Now()
		st, err := vessel.RestoreFrom(snap, flatBacking{}, false)
		restore = append(restore, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil {
			return err
		}
		if st.Full {
			return errors.New("cache restore fell back to a full copy")
		}
	}
	m["cache.restore_touched_us"] = median(restore)
	return nil
}

// probeMem times word accesses to device memory and the delta restore of
// a vessel image with one experiment's worth of dirty pages.
func probeMem(ps probeSizes, m map[string]float64) error {
	const image = 4 << 20
	snap := mem.New()
	base, err := snap.Alloc(image)
	if err != nil {
		return err
	}
	start := time.Now()
	var sum uint32
	for i := 0; i < ps.streamOps; i++ {
		a := base + uint32(i*4)%image
		snap.Write32(a, uint32(i))
		sum += snap.Read32(a)
	}
	m["mem.rw32_ns"] = float64(time.Since(start).Nanoseconds()) / float64(2*ps.streamOps)
	_ = sum // keeps the reads from being dead code

	snap.StartTracking()
	vessel := snap.Clone()
	vessel.SetSyncedTo(snap)
	var restore []float64
	for r := 0; r < max(ps.reps*20, 20); r++ {
		for p := 0; p < ps.dirtyPages; p++ {
			vessel.Write32(base+uint32((r*ps.dirtyPages+p)*mem.PageBytes)%image, 1)
		}
		start := time.Now()
		st := vessel.RestoreFrom(snap, false)
		restore = append(restore, float64(time.Since(start).Nanoseconds())/1e3)
		if st.Full {
			return errors.New("memory restore fell back to a full copy")
		}
	}
	m["mem.restore_dirty_us"] = median(restore)
	return nil
}

// probeCore times the fault-free characterisation of a small and a large
// app, and planning a service-sharded campaign into eight shards.
func probeCore(ctx context.Context, seed int64, ps probeSizes, m map[string]float64) error {
	gpu := gpufi.RTX2060()
	var lateProf *gpufi.AppProfile
	for _, name := range []string{"BP", "SRAD2"} {
		app, err := gpufi.AppByName(name)
		if err != nil {
			return err
		}
		var perr error
		var prof *gpufi.AppProfile
		m["core.profile_ms."+name] = timeMedian(ps.reps, func() {
			prof, perr = gpufi.Profile(ctx, app, gpu)
		}) * 1e3
		if perr != nil {
			return perr
		}
		if name == lateApp {
			lateProf = prof
		}
	}
	cfg, err := lateSpec(seed, planProbeRuns, lateProf).Config()
	if err != nil {
		return err
	}
	var perr error
	m["core.plan_shards_ms"] = timeMedian(ps.reps, func() {
		_, perr = core.PlanShards(cfg, lateProf, 8)
	}) * 1e3
	return perr
}

// planProbeRuns is the campaign size core.plan_shards_ms plans: one
// service-sharded campaign. Planning is linear in the run count.
const planProbeRuns = 5000

// probeObs times the two instruments every layer calls: a span started
// and ended under a sink, and a counter increment.
func probeObs(ps probeSizes, m map[string]float64) {
	n := max(ps.streamOps/16, 256)
	ctx := obs.ContextWithSink(obs.ContextWithTrace(context.Background(), obs.NewTraceID()),
		func(obs.SpanRecord) {})
	start := time.Now()
	for i := 0; i < n; i++ {
		_, sp := obs.StartSpan(ctx, "ledger.probe")
		sp.End()
	}
	m["obs.span_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)
	ctr := obs.NewRegistry().Counter("ledger_probe_total", "Probe counter.")
	start = time.Now()
	for i := 0; i < ps.streamOps; i++ {
		ctr.Inc()
	}
	m["obs.counter_inc_ns"] = float64(time.Since(start).Nanoseconds()) / float64(ps.streamOps)
}

// probeCluster covers store, shard and service with one small cluster in
// which the harness plays the shard worker: it submits the campaign-late
// point over HTTP and feeds the coordinator the library run's records,
// once by direct calls and once over loopback HTTP.
func probeCluster(ctx context.Context, seed int64, ps probeSizes, tmp string, m map[string]float64) error {
	w := &serviceSharded{seed: seed, runs: ps.campaignRuns, tmp: tmp, noWorkers: true}
	defer w.close()
	if err := w.setup(ctx, nil); err != nil {
		return err
	}
	if err := probeStore(w, ps, m); err != nil {
		return err
	}

	var claim, ingest, httpBatch []float64
	for _, overHTTP := range []bool{false, true} {
		id, err := w.submit()
		if err != nil {
			return err
		}
		for {
			start := time.Now()
			sh, err := w.co.Claim("ledger-probe")
			if errors.Is(err, shard.ErrNoWork) {
				done, err := w.done(id)
				if err != nil {
					return err
				}
				if done {
					break
				}
				time.Sleep(time.Millisecond) // the service has not planned the campaign yet
				continue
			}
			if err != nil {
				return err
			}
			claim = append(claim, float64(time.Since(start).Nanoseconds())/1e3)
			for lo := 0; lo < len(sh.Indices); lo += 64 {
				hi := min(lo+64, len(sh.Indices))
				b := shard.Batch{Campaign: sh.Campaign, Shard: sh.ID, Lease: sh.Lease,
					Seq: lo / 64, Final: hi == len(sh.Indices)}
				for _, i := range sh.Indices[lo:hi] {
					b.Records = append(b.Records, shard.Record{Kind: shard.KindExp, Exp: &w.lib.Exps[i]})
				}
				start := time.Now()
				if overHTTP {
					var raw []byte
					if raw, err = json.Marshal(b); err == nil {
						err = postJSON(w.ts.URL+"/v1/shards/"+url.PathEscape(sh.ID)+"/journal", raw)
					}
					httpBatch = append(httpBatch, time.Since(start).Seconds()*1e3)
				} else {
					_, err = w.co.Ingest(b)
					ingest = append(ingest, float64(time.Since(start).Nanoseconds())/1e3/float64(hi-lo))
				}
				if err != nil {
					return err
				}
			}
		}
		if err := w.checkLog(id); err != nil {
			return err
		}
	}
	m["shard.claim_us"] = median(claim)
	m["shard.ingest_us_per_rec"] = median(ingest)
	m["shard.http_batch_ms"] = median(httpBatch)
	m["service.submit_ms"] = median(w.submitMS)
	m["service.status_get_us"] = median(w.statusUS)
	m["service.log_fetch_ms"] = median(w.logMS)
	return nil
}

// postJSON POSTs an encoded JSON body and expects a 2xx answer.
func postJSON(u string, raw []byte) error {
	resp, err := http.Post(u, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: http %d: %s", u, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// probeStore times the codec and the durable logs on the library run's
// records: write beside read.
func probeStore(w *serviceSharded, ps probeSizes, m map[string]float64) error {
	// The library run's records, cycled and renumbered to the journal size.
	big := *w.lib
	big.Runs = ps.journalRecs
	big.Exps = make([]core.Experiment, ps.journalRecs)
	for i := range big.Exps {
		big.Exps[i] = w.lib.Exps[i%len(w.lib.Exps)]
		big.Exps[i].ID = i
	}
	exps := big.Exps

	var encErr error
	m["store.encode_ns_per_rec"] = timeMedian(ps.reps, func() {
		if err := store.WriteLog(io.Discard, &big); err != nil {
			encErr = err
		}
	}) * 1e9 / float64(len(exps))
	if encErr != nil {
		return encErr
	}
	var buf bytes.Buffer
	if err := store.WriteLog(&buf, &big); err != nil {
		return err
	}
	var decErr error
	m["store.decode_ns_per_rec"] = timeMedian(ps.reps, func() {
		if _, err := store.ParseLog(bytes.NewReader(buf.Bytes())); err != nil {
			decErr = err
		}
	}) * 1e9 / float64(len(exps))
	if decErr != nil {
		return decErr
	}

	// A durable journal: batched appends, single-record fsyncs, resume.
	spec := w.spec
	spec.Runs = len(exps)
	c, err := w.st.Create("probe-journal", spec)
	if err != nil {
		return err
	}
	defer c.Close()
	start := time.Now()
	for i := range exps[:len(exps)-16] {
		if err := c.Append(exps[i]); err != nil {
			return err
		}
	}
	m["store.journal_append_ns_per_rec"] = float64(time.Since(start).Nanoseconds()) / float64(len(exps)-16)
	var fsync []float64
	for i := len(exps) - 16; i < len(exps); i++ {
		if err := c.Append(exps[i]); err != nil {
			return err
		}
		start := time.Now()
		if err := c.Sync(); err != nil {
			return err
		}
		fsync = append(fsync, time.Since(start).Seconds()*1e3)
	}
	m["store.fsync_ms_p50"] = median(fsync)
	if err := c.Close(); err != nil {
		return err
	}
	var resErr error
	m["store.resume_ms"] = timeMedian(ps.reps, func() {
		rc, err := w.st.Resume("probe-journal")
		if err != nil {
			resErr = err
			return
		}
		if len(rc.Prior) != len(exps) {
			resErr = fmt.Errorf("resume recovered %d of %d records", len(rc.Prior), len(exps))
		}
		rc.Close()
	}) * 1e3
	if resErr != nil {
		return resErr
	}

	_, _, wal, err := w.st.OpenControlWAL("probe-journal")
	if err != nil {
		return err
	}
	defer wal.Close()
	var sync []float64
	for i := 0; i < 16; i++ {
		start := time.Now()
		if err := wal.AppendSync(store.ControlRecord{Kind: store.CtlGrant, Shard: "probe", Epoch: int64(i + 1)}); err != nil {
			return err
		}
		sync = append(sync, float64(time.Since(start).Nanoseconds())/1e3)
	}
	m["store.wal_append_sync_us"] = median(sync)
	return nil
}
