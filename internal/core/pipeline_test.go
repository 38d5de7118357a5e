package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpufi/internal/asm"
	"gpufi/internal/avf"
	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/obs"
	"gpufi/internal/sim"
)

// This file is the gate on the engine as a pipeline: the prefix device runs
// one cluster ahead of the workers, and none of what a run's hooks receive,
// what it leaves in the device pool or which goroutines it leaves behind may
// depend on how far ahead it got. The CI race job runs all of it under -race.

// evalStreams runs app's whole evaluation as one engine run and returns each
// point's journal and trace records in arrival order.
func evalStreams(t *testing.T, app *bench.App, gpu *config.GPU, prof *Profile, workers int) []streamRecorder {
	t.Helper()
	_, points, err := planEval(app, gpu, prof, EvalConfig{Runs: 10, Seed: 9, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]streamRecorder, len(points))
	for n, pt := range points {
		recs[n].attach(pt.cfg)
	}
	if _, err := runPoints(context.Background(), prof, points); err != nil {
		t.Fatalf("%s at %d workers: %v", app.Name, workers, err)
	}
	return recs
}

// TestPipelineWorkerInvariance evaluates KM and HS at 1, 2, 4 and 8 workers
// on one and on four processors: whatever the overlap of prefix and workers
// comes to, every point's journal and trace hold the same bytes per
// experiment, and with one worker they arrive in the order the engine
// delivered them in before the prefix ran ahead (digests recorded on PR 22's
// code, which alternated prefix and cluster — never refresh them).
func TestPipelineWorkerInvariance(t *testing.T) {
	wantOrder := map[string]string{
		"KM": "49732aaac836a5833837da5b3f718a329cf6094f8572b945fe56f9cc70633dd7",
		"HS": "c333e430083089733e8410c582ecd9620dcb80da60605bf56e200b62d9feb2d4",
	}
	gpu := config.RTX2060()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range []string{"KM", "HS"} {
		app, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := ProfileApp(nil, app, gpu)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(1)
		ref := evalStreams(t, app, gpu, prof, 1)
		h := sha256.New()
		for _, r := range ref {
			h.Write(bytes.Join(r.journal, []byte{'\n'}))
			h.Write(bytes.Join(r.traces, []byte{'\n'}))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantOrder[name] {
			t.Errorf("%s: one-worker arrival order or bytes moved: digest %s", name, got)
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{1, 2, 4, 8} {
				got := evalStreams(t, app, gpu, prof, workers)
				for n := range ref {
					label := fmt.Sprintf("%s point %d, %d workers on %d processors", name, n, workers, procs)
					if !sameRecords(got[n].journal, ref[n].journal, workers == 1) {
						t.Errorf("%s: journal diverged from the one-worker run", label)
					}
					if !sameRecords(got[n].traces, ref[n].traces, workers == 1) {
						t.Errorf("%s: traces diverged from the one-worker run", label)
					}
				}
			}
		}
	}
}

// clusterOf maps each experiment of a one-point campaign to its cluster.
func clusterOf(t *testing.T, cfg *CampaignConfig, prof *Profile) (of map[int]int, clusters []cluster) {
	t.Helper()
	cp, err := planCampaign(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	clusters = planClusters([]*point{{cfg: cfg, plan: cp, pending: cp.pending}})
	of = make(map[int]int)
	for k, cl := range clusters {
		for _, j := range cl.jobs {
			of[j.i] = k
		}
	}
	return of, clusters
}

// prefixAhead returns a function that blocks until the prefix of the run
// about to start has captured cluster k+1 — it is then a cluster ahead of
// whoever is still executing cluster k, simulating on or waiting in its sink.
func prefixAhead(t *testing.T) func(k int) {
	base := EngineStats().SnapshotCaptures
	return func(k int) {
		for deadline := time.Now().Add(20 * time.Second); EngineStats().SnapshotCaptures-base < int64(k)+2; {
			if time.Now().After(deadline) {
				t.Errorf("the prefix never captured cluster %d while cluster %d was executing", k+1, k)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// bfsPoint is TestWallClockDeadline's campaign point, the only kind a
// per-experiment deadline can fire on — thousands of cycles after every
// injection — and on the run-to-the-end engine, so that the experiment
// picked to hang is not one that ends at its injection cycle.
func bfsPoint(t *testing.T) (func() *CampaignConfig, *Profile) {
	t.Helper()
	gpu := config.RTX2060()
	app, err := bench.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	return func() *CampaignConfig {
		return &CampaignConfig{App: app, GPU: gpu, Kernel: "bfs_k1", Structure: sim.StructRegFile,
			Invocation: 1, Runs: 24, Bits: 1, Seed: 5, Workers: 2, ExpTimeout: time.Second, runToEnd: true}
	}, prof
}

// midCluster picks a cluster with at least two experiments that is neither
// the first nor the last, and two of its experiments.
func midCluster(t *testing.T, clusters []cluster) (k, a, b int) {
	t.Helper()
	for k := 1; k < len(clusters)-1; k++ {
		if jobs := clusters[k].jobs; len(jobs) >= 2 {
			return k, jobs[0].i, jobs[1].i
		}
	}
	t.Fatalf("no middle cluster with two experiments among %d", len(clusters))
	return
}

// TestPipelineDepthIsOneCluster holds an experiment of cluster k up and
// watches the prefix: it must capture cluster k+1 — that is the overlap —
// and then wait, however long cluster k takes, because capturing cluster k+2
// would need the template cluster k is still forking from.
func TestPipelineDepthIsOneCluster(t *testing.T) {
	mk, prof := bfsPoint(t)
	_, clusters := clusterOf(t, mk(), prof)
	k, heldID, _ := midCluster(t, clusters)
	base, ahead := EngineStats().SnapshotCaptures, prefixAhead(t)
	var captured int64
	cfg := mk()
	cfg.ExperimentHook = func(id int, _ *sim.FaultSpec) {
		if id == heldID {
			ahead(k)
			time.Sleep(300 * time.Millisecond) // many times what the prefix needs from one cluster to the next
			captured = EngineStats().SnapshotCaptures - base
		}
	}
	if _, err := RunCampaign(nil, cfg, prof); err != nil {
		t.Fatal(err)
	}
	if want := int64(k) + 2; captured != want {
		t.Errorf("the prefix had taken %d captures while cluster %d was executing, want %d: one cluster ahead, no more", captured, k, want)
	}
}

// TestPipelinePoisonWhilePrefixAhead panics one experiment of cluster k and
// hangs another past its deadline, both only once the prefix has captured
// cluster k+1. Cluster k's template must be dropped — never recycled, never
// parked — with the two vessels, and every other experiment, the later
// clusters' included, must be byte-identical to a run nothing went wrong in.
func TestPipelinePoisonWhilePrefixAhead(t *testing.T) {
	mk, prof := bfsPoint(t)
	of, clusters := clusterOf(t, mk(), prof)
	k, panicID, hangID := midCluster(t, clusters)

	run := func(hook func(int, *sim.FaultSpec)) (*journalRecorder, *CampaignResult) {
		rec, cfg := newJournalRecorder(), mk()
		cfg.Journal, cfg.ExperimentHook = rec.journal, hook
		res, err := RunCampaign(nil, cfg, prof)
		if err != nil {
			t.Fatal(err)
		}
		return rec, res
	}
	clean, _ := run(nil)

	sim.DrainPool()
	before, ahead := EngineStats(), prefixAhead(t)
	rec, res := run(func(id int, _ *sim.FaultSpec) {
		switch id {
		case panicID:
			ahead(k)
			panic("poison with the prefix a cluster ahead")
		case hangID:
			ahead(k)
			time.Sleep(1500 * time.Millisecond)
		}
	})
	after := EngineStats()
	if e := res.Exps[panicID]; e.Outcome != avf.Crash || !e.Quarantined {
		t.Errorf("panicked experiment %d = {%s quarantined=%v}", panicID, e.Effect, e.Quarantined)
	}
	if e := res.Exps[hangID]; e.Outcome != avf.Timeout || !e.Quarantined {
		t.Errorf("hung experiment %d = {%s quarantined=%v}", hangID, e.Effect, e.Quarantined)
	}
	for id, want := range clean.recs {
		if id != panicID && id != hangID && !bytes.Equal(rec.recs[id], want) {
			t.Errorf("experiment %d (cluster %d, the poison was in %d) diverged:\n  got  %s\n  want %s", id, of[id], k, rec.recs[id], want)
		}
	}
	// Everything the run built is parked again but the two vessels and the
	// one template: the pool was empty, so built is what the run held.
	built, parked := after.DevicesBuilt-before.DevicesBuilt, after.DevicesParked-before.DevicesParked
	if want := runDevices(2, len(clusters), 24) + 3; built != want || parked != built-3 {
		t.Errorf("%d devices built and %d parked, want %d and %d: the poisoned cluster's template and the two vessels are dropped and replaced",
			built, parked, want, want-3)
	}
}

// settled requires a run that has returned to have left nothing behind: every
// device it built (the pool was empty) parked, and no goroutine of its own.
func settled(t *testing.T, what string, before EngineCounters, goroutines int) {
	t.Helper()
	after := EngineStats()
	if built, parked := after.DevicesBuilt-before.DevicesBuilt, after.DevicesParked-before.DevicesParked; parked != built {
		t.Errorf("%s: %d devices built, %d parked", what, built, parked)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines, %d before the run", what, runtime.NumGoroutine(), goroutines)
			return
		}
	}
}

// TestPipelineStopsWhilePrefixAhead cancels a run, and fails its Journal
// hook, from cluster k once the prefix has captured cluster k+1: the
// cancelled run hands back what finished, the failed one its error, and both
// release every device and leave no goroutine.
func TestPipelineStopsWhilePrefixAhead(t *testing.T) {
	mk, prof := bfsPoint(t)
	of, clusters := clusterOf(t, mk(), prof)
	k, stopID, _ := midCluster(t, clusters)

	t.Run("cancel", func(t *testing.T) {
		sim.DrainPool()
		before, goroutines, ahead := EngineStats(), runtime.NumGoroutine(), prefixAhead(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := mk()
		var finished atomic.Int64
		cfg.Progress = func(Experiment) { finished.Add(1) }
		cfg.ExperimentHook = func(id int, _ *sim.FaultSpec) {
			if id == stopID {
				ahead(k)
				cancel()
			}
		}
		res, err := RunCampaign(ctx, cfg, prof)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if res == nil || len(res.Exps) != int(finished.Load()) || len(res.Exps) == 0 || len(res.Exps) >= cfg.Runs {
			t.Fatalf("cancelled run returned %v, its progress hook saw %d of %d", res, finished.Load(), cfg.Runs)
		}
		for _, e := range res.Exps {
			if of[e.ID] > k+1 {
				t.Errorf("experiment %d of cluster %d ran: the prefix was stopped at cluster %d", e.ID, of[e.ID], k+1)
			}
		}
		settled(t, "cancelled run", before, goroutines)
	})
	t.Run("journal", func(t *testing.T) {
		sim.DrainPool()
		before, goroutines, ahead := EngineStats(), runtime.NumGoroutine(), prefixAhead(t)
		// One worker: a journal hook runs under its point's collector, and a
		// second worker held up there on the last job of cluster k-1 would
		// keep the prefix in the sink of cluster k, waiting for it.
		cfg := mk()
		cfg.Workers = 1
		cfg.Journal = func(exp Experiment) error {
			if exp.ID == stopID {
				ahead(k)
				return errDisk
			}
			return nil
		}
		res, err := RunCampaign(nil, cfg, prof)
		if err == nil || !strings.Contains(err.Error(), "journal experiment") || !errors.Is(err, error(errDisk)) {
			t.Fatalf("want the journal hook's error, got %v", err)
		}
		if res != nil {
			t.Errorf("failed run returned a result: %+v", res.Counts)
		}
		settled(t, "run with a failing journal", before, goroutines)
	})
}

// twoLaunchApp launches one kernel twice, or — stunted — once: the profile of
// the whole application then plans clusters the stunted prefix never reaches.
func twoLaunchApp(t *testing.T, stunted *bool) *bench.App {
	t.Helper()
	progs, err := asm.AssembleAll(`
.kernel bump
	S2R  R0, %gtid
	LDC  R3, c[0]
	SHL  R4, R0, 2
	IADD R4, R3, R4
	LDG  R1, [R4]
	MOV  R5, 0
	MOV  R8, 24
	MOV  R9, 3
bump_loop:
	ISETP.GE P0, R5, R8
@P0	BRA  bump_done
	IMUL R1, R1, R9
	IADD R1, R1, R5
	IADD R5, R5, 1
	BRA  bump_loop
bump_done:
	STG  [R4], R1
	EXIT
`)
	if err != nil {
		t.Fatal(err)
	}
	const threads = 4 * 64
	ref := make([]byte, 4*threads)
	for tid := uint32(0); tid < threads; tid++ {
		acc := tid
		for launch := 0; launch < 2; launch++ {
			for i := uint32(0); i < 24; i++ {
				acc = acc*3 + i
			}
		}
		binary.LittleEndian.PutUint32(ref[4*tid:], acc)
	}
	return &bench.App{
		Name: "BUMP", Kernels: []string{"bump"}, Reference: ref,
		RefOK: func(out []byte) bool { return bytes.Equal(out, ref) },
		Run: func(g *sim.GPU) ([]byte, error) {
			buf, err := g.Malloc(4 * threads)
			if err != nil {
				return nil, err
			}
			in := make([]byte, 4*threads)
			for tid := uint32(0); tid < threads; tid++ {
				binary.LittleEndian.PutUint32(in[4*tid:], tid)
			}
			if err := g.MemcpyHtoD(buf, in); err != nil {
				return nil, err
			}
			for launch := 0; launch < 2 && !(*stunted && launch == 1); launch++ {
				if _, err := g.Launch(progs["bump"], sim.Dim1(4), sim.Dim1(64), buf); err != nil {
					return nil, err
				}
			}
			out := make([]byte, 4*threads)
			return out, g.MemcpyDtoH(out, buf)
		},
	}
}

// TestPipelinePrefixEndsEarly: a prefix that returns cleanly after its first
// launch, with clusters planned in the second, has published some clusters
// and not others. The published ones run to the end; the error names how far
// the prefix got and counts exactly the experiments of the clusters it never
// reached.
func TestPipelinePrefixEndsEarly(t *testing.T) {
	var stunted bool
	app, gpu := twoLaunchApp(t, &stunted), config.RTX2060()
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	windows := prof.Kernels["bump"].Windows
	if len(windows) != 2 {
		t.Fatalf("profile has %d bump windows, want 2", len(windows))
	}
	cfg := &CampaignConfig{App: app, GPU: gpu, Kernel: "bump", Structure: sim.StructRegFile,
		Runs: 40, Bits: 1, Seed: 13, Workers: 2}
	_, clusters := clusterOf(t, cfg, prof)
	reached, never := 0, 0
	for _, cl := range clusters {
		if cl.snapCycle < windows[0].End {
			reached++
		} else {
			never += len(cl.jobs)
		}
	}
	if reached == 0 || never == 0 {
		t.Fatalf("the plan does not straddle the launches: %d clusters in the first, %d experiments in the second", reached, never)
	}
	sim.DrainPool()
	before, goroutines := EngineStats(), runtime.NumGoroutine()
	stunted = true
	res, err := RunCampaign(nil, cfg, prof)
	want := fmt.Sprintf("finished after %d of %d snapshot clusters: %d experiment(s) never ran", reached, len(clusters), never)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("want an error saying %q, got %v", want, err)
	}
	if res == nil || res.Counts.Total() != cfg.Runs-never {
		t.Fatalf("the published clusters hold %d experiments, the result %v", cfg.Runs-never, res)
	}
	settled(t, "run whose prefix ended early", before, goroutines)
}

// TestPipelineSpans: the span model of a run is what it was — one
// engine.snapshot and one engine.cluster span per cluster under one parent,
// the cluster span announced before any span of its experiments — except that
// a cluster's span now overlaps the next snapshot's, and a snapshot span says
// how much of it the prefix spent waiting for the previous cluster (wait_ns).
func TestPipelineSpans(t *testing.T) {
	mk, prof := bfsPoint(t)
	_, clusters := clusterOf(t, mk(), prof)
	var mu sync.Mutex
	var recs []obs.SpanRecord
	ctx := obs.ContextWithSink(
		obs.ContextWithNode(obs.ContextWithTrace(context.Background(), obs.NewTraceID()), "test"),
		func(r obs.SpanRecord) { mu.Lock(); recs = append(recs, r); mu.Unlock() })
	if _, err := RunCampaign(ctx, mk(), prof); err != nil {
		t.Fatal(err)
	}
	announced := map[string]bool{}       // cluster span ids seen so far
	final := map[string]obs.SpanRecord{} // cluster number -> completed cluster span
	snaps := map[string]obs.SpanRecord{}
	for _, r := range recs {
		switch r.Name {
		case "engine.cluster":
			announced[r.Span] = true
			if prev, ok := final[r.Attrs["cluster"]]; !ok || r.DurUS >= prev.DurUS {
				final[r.Attrs["cluster"]] = r
			}
		case "engine.snapshot":
			snaps[r.Attrs["cluster"]] = r
			wait, err := strconv.ParseInt(r.Attrs["wait_ns"], 10, 64)
			if err != nil || wait < 0 || wait/1000 > r.DurUS+1 {
				t.Errorf("engine.snapshot %s: wait_ns %q of a span lasting %d us", r.Attrs["cluster"], r.Attrs["wait_ns"], r.DurUS)
			}
		case "engine.fork", "engine.execute", "engine.classify":
			if !announced[r.Parent] {
				t.Fatalf("%s span of experiment %s arrived before its cluster span announced itself", r.Name, r.Attrs["exp"])
			}
		}
	}
	if len(final) != len(clusters) || len(snaps) != len(clusters) {
		t.Fatalf("%d engine.cluster and %d engine.snapshot spans for %d clusters", len(final), len(snaps), len(clusters))
	}
	overlaps := 0
	for k := 0; k+1 < len(clusters); k++ {
		cl, next := final[strconv.Itoa(k)], snaps[strconv.Itoa(k+1)]
		if cl.Parent != next.Parent {
			t.Errorf("cluster %d's span and the next snapshot's have different parents", k)
		}
		if end := cl.StartUS + cl.DurUS; next.StartUS+next.DurUS < end {
			t.Errorf("snapshot %d ended before cluster %d had drained", k+1, k)
		} else if next.StartUS < end {
			overlaps++
		}
	}
	if overlaps == 0 {
		t.Errorf("no engine.cluster span overlaps the next engine.snapshot: the prefix never ran ahead")
	}
}
