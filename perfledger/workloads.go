package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"time"

	"gpufi"
	"gpufi/internal/core"
	"gpufi/internal/obs"
	"gpufi/internal/service"
	"gpufi/internal/shard"
	"gpufi/internal/store"
)

// exact holds the simulated statistics of one pass. The simulator is
// deterministic, so for one seed they are identical on every pass, on
// every run and on every commit that only changes host speed.
type exact struct {
	Cycles map[string]uint64 `json:"cycles,omitempty"` // simulated cycles per app
	Winstr map[string]int64  `json:"winstr,omitempty"` // simulated warp instructions per app
	Counts gpufi.Counts      `json:"counts"`           // fault-effect tally of the pass
	WAVF   map[string]string `json:"wavf,omitempty"`   // Eq. (3) per app, 6 significant digits
	FIT    map[string]string `json:"fit,omitempty"`    // chip FIT per app, 6 significant digits
}

func (e exact) equal(o exact) bool {
	a, _ := json.Marshal(e)
	b, _ := json.Marshal(o)
	return bytes.Equal(a, b)
}

func sig6(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// passResult is what one timed pass of a workload reports.
type passResult struct {
	ops     int     // operations attempted: injection experiments, or app runs on golden-12
	lost    int     // operations lost to a campaign error
	ok      bool    // every output check of the pass held
	note    string  // first failed check, for the log
	kinstr  float64 // simulated warp instructions x10^3 (see BENCHMARK notes in README)
	seconds float64 // the workload's own submit-to-done time; 0 = the pass wall clock
	exact   exact
}

func (p *passResult) fail(format string, args ...any) {
	if p.ok {
		p.note = fmt.Sprintf(format, args...)
	}
	p.ok = false
}

// workload is one named set of inputs. setup does everything that comes
// before the first pass except the warm-up pass; it may be called again
// after close. pass runs one unit of submitted work and checks it.
type workload interface {
	setup(ctx context.Context, rec *recorder) error
	pass(ctx context.Context, rec *recorder) passResult
	// counters returns cumulative layer counters the runner differences
	// around the timed passes (nil when the workload has none).
	counters() map[string]float64
	// offTimer says what one pass spends where the engine's phase timers
	// do not look, for the reconciliation: seconds of fault-free
	// simulation (golden runs, profiles, the prefix every campaign or
	// shard re-runs up to its last snapshot), and how many experiment
	// specifications are planned (every campaign derives its whole fault
	// list; every shard derives its campaign's).
	offTimer() (simSeconds, plannedSpecs float64)
	close()
}

// sizes are the workload dimensions; short shrinks every workload to one
// tiny pass so the unit tests reach every code path in about a second.
type sizes struct {
	goldenScale  int
	campaignRuns int
	evalRuns     int
	evalApps     []string
	serviceRuns  int
}

func fullSizes() sizes {
	return sizes{goldenScale: 4, campaignRuns: 10000, evalRuns: 40,
		evalApps: []string{"SRAD2", "HS", "BP", "KM"}, serviceRuns: 5000}
}

func shortSizes() sizes {
	return sizes{goldenScale: 1, campaignRuns: 48, evalRuns: 2,
		evalApps: []string{"KM"}, serviceRuns: 64}
}

var workloadNames = []string{"golden-12", "campaign-late", "eval-matrix", "service-sharded"}

func newWorkload(name string, seed int64, sz sizes, tmp string) (workload, error) {
	switch name {
	case "golden-12":
		return &golden{scale: sz.goldenScale}, nil
	case "campaign-late":
		return &campaignLate{seed: seed, runs: sz.campaignRuns}, nil
	case "eval-matrix":
		return &evalMatrix{seed: seed, runs: sz.evalRuns, names: sz.evalApps}, nil
	case "service-sharded":
		return &serviceSharded{seed: seed, runs: sz.serviceRuns, tmp: tmp}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// traceCtx returns a context under which the program's own spans are
// collected below the harness span caller; on the untraced run it is ctx.
func traceCtx(ctx context.Context, rec *recorder, caller string) context.Context {
	if rec == nil {
		return ctx
	}
	ctx = obs.ContextWithNode(obs.ContextWithTrace(ctx, obs.NewTraceID()), "ledger")
	return obs.ContextWithSink(ctx, rec.sink(caller))
}

// timedProfile runs the fault-free characterisation as a core span and
// returns how long it took.
func timedProfile(ctx context.Context, rec *recorder, app *gpufi.App) (*gpufi.AppProfile, float64, error) {
	_, end := rec.begin("", "core", "core.profile")
	start := time.Now()
	prof, err := gpufi.Profile(ctx, app, gpufi.RTX2060())
	end()
	return prof, time.Since(start).Seconds(), err
}

func profileInstr(prof *gpufi.AppProfile) int64 {
	var n int64
	for _, ks := range prof.Kernels {
		n += ks.Instructions
	}
	return n
}

// ---- golden-12 -----------------------------------------------------------

// golden runs the twelve applications fault-free: the simulator's host
// speed with no engine, store or service in the way.
type golden struct {
	scale int
	apps  []*gpufi.App

	// appNS collects each app's run time over the passes, for
	// sim.ns_per_winstr; l1d/l2 are the modelled hit ratios of the last pass.
	appNS            map[string][]float64
	l1dHits, l1dAcc  int64
	l2Hits, l2Access int64
	runS             float64 // seconds inside App.Run during the last pass
}

func (w *golden) setup(_ context.Context, rec *recorder) error {
	_, end := rec.begin("", "asm", "asm.build_apps")
	w.apps = gpufi.AppsScale(w.scale)
	end()
	w.appNS = map[string][]float64{}
	return nil
}

func (w *golden) pass(_ context.Context, rec *recorder) passResult {
	res := passResult{ok: true, exact: exact{Cycles: map[string]uint64{}, Winstr: map[string]int64{}}}
	root, endPass := rec.begin("", "harness", "pass")
	defer endPass()
	gpu := gpufi.RTX2060()
	w.l1dHits, w.l1dAcc, w.l2Hits, w.l2Access, w.runS = 0, 0, 0, 0, 0
	for _, app := range w.apps {
		res.ops++
		dev, err := gpufi.NewDevice(gpu)
		if err != nil {
			res.lost++
			res.fail("%s: %v", app.Name, err)
			continue
		}
		// Collect the previous device first: every app run allocates a whole
		// fresh GPU, and without this the run's peak RSS measures where the
		// collector's cycles happened to fall, not the simulator's footprint.
		runtime.GC()
		_, end := rec.begin(root, "sim", "sim.app_run."+app.Name)
		start := time.Now()
		out, err := app.Run(dev)
		ns := float64(time.Since(start).Nanoseconds())
		end()
		if err != nil {
			res.lost++
			res.fail("%s: %v", app.Name, err)
			continue
		}
		if !app.RefOK(out) {
			res.fail("%s: output does not match its CPU reference", app.Name)
		}
		var instr int64
		for _, ks := range dev.KernelStats() {
			instr += ks.Instructions
		}
		res.exact.Cycles[app.Name] = dev.Cycle()
		res.exact.Winstr[app.Name] = instr
		res.kinstr += float64(instr) / 1e3
		w.appNS[app.Name] = append(w.appNS[app.Name], ns/float64(max(instr, 1)))
		w.runS += ns / 1e9
		for i := 0; i < gpu.SMs; i++ {
			st := dev.CoreL1D(i).Stats()
			w.l1dHits += st.Hits
			w.l1dAcc += st.Accesses
		}
		st := dev.L2().Stats()
		w.l2Hits += st.Hits
		w.l2Access += st.Accesses
	}
	return res
}

func (w *golden) counters() map[string]float64 { return nil }
func (w *golden) offTimer() (float64, float64) { return w.runS, 0 }
func (w *golden) close()                       {}

// ---- campaign-late -------------------------------------------------------

// campaignLate is one library campaign into the register file during the
// last invocation of BP's bp_adjust: short faulty suffixes, so the fork
// engine's own work has its largest share.
type campaignLate struct {
	seed int64
	runs int

	app   *gpufi.App
	prof  *gpufi.AppProfile
	profS float64 // seconds the fault-free profile run took
}

const (
	lateApp    = "BP"
	lateKernel = "bp_adjust"
)

// lateSpec is the campaign-late point as a serializable spec, for the
// paths that go through the store.
func lateSpec(seed int64, runs int, prof *gpufi.AppProfile) store.Spec {
	return store.Spec{App: lateApp, GPU: "RTX2060", Kernel: lateKernel, Structure: "regfile",
		Runs: runs, Seed: seed, Workers: 1, Invocation: prof.Kernels[lateKernel].Invocations}
}

func (w *campaignLate) setup(ctx context.Context, rec *recorder) error {
	app, err := gpufi.AppByName(lateApp)
	if err != nil {
		return err
	}
	prof, profS, err := timedProfile(ctx, rec, app)
	if err != nil {
		return err
	}
	w.app, w.prof, w.profS = app, prof, profS
	return nil
}

// offTimer: the campaign re-runs the fault-free prefix once, up to its
// last snapshot inside the application's final kernel invocation.
func (w *campaignLate) offTimer() (float64, float64) { return w.profS, float64(w.runs) }

func (w *campaignLate) pass(ctx context.Context, rec *recorder) passResult {
	res := passResult{ok: true, ops: w.runs}
	root, endPass := rec.begin("", "harness", "pass")
	defer endPass()
	c := gpufi.NewCampaign(
		gpufi.WithTarget(w.app, gpufi.RTX2060(), lateKernel, gpufi.StructRegFile),
		gpufi.WithInvocation(w.prof.Kernels[lateKernel].Invocations), gpufi.WithRuns(w.runs), gpufi.WithSeed(w.seed),
		gpufi.WithWorkers(2), gpufi.WithProfile(w.prof))
	id, end := rec.begin(root, "core", "core.campaign_run")
	out, err := c.Run(traceCtx(ctx, rec, id))
	end()
	if err != nil {
		res.lost = w.runs
		if out != nil {
			res.lost = w.runs - out.Counts.Total()
		}
		res.fail("campaign: %v", err)
		return res
	}
	if out.Counts.Total() != w.runs {
		res.lost = w.runs - out.Counts.Total()
		res.fail("campaign finished %d of %d experiments", out.Counts.Total(), w.runs)
	}
	res.exact.Counts = out.Counts
	res.kinstr = float64(w.runs) * float64(profileInstr(w.prof)) / 1e3
	return res
}

func (w *campaignLate) counters() map[string]float64 { return nil }
func (w *campaignLate) close()                       {}

// ---- eval-matrix ---------------------------------------------------------

// evalMatrix is the paper's headline flow: the full (kernel, structure)
// campaign matrix of four applications, assembled into wAVF and FIT.
type evalMatrix struct {
	seed  int64
	runs  int
	names []string

	apps    []*gpufi.App
	instr   map[string]int64
	serialS float64 // fault-free simulation per pass, see offTimer
	points  int     // (kernel, structure) campaigns per pass
}

func (w *evalMatrix) setup(ctx context.Context, rec *recorder) error {
	w.apps, w.instr, w.serialS, w.points = nil, map[string]int64{}, 0, 0
	for _, n := range w.names {
		app, err := gpufi.AppByName(n)
		if err != nil {
			return err
		}
		prof, profS, err := timedProfile(ctx, rec, app)
		if err != nil {
			return err
		}
		w.apps = append(w.apps, app)
		w.instr[n] = profileInstr(prof)
		// Evaluate profiles the app once, then every campaign point
		// re-runs the prefix up to its kernel's last invocation window.
		// Shared memory in a kernel that uses none is answered without
		// simulating.
		runs := 1.0
		for _, ks := range prof.Kernels {
			points := len(gpufi.OnChipStructures())
			if ks.SmemPerCTA == 0 {
				points--
			}
			end := ks.Windows[len(ks.Windows)-1].End
			runs += float64(points) * float64(end) / float64(prof.TotalCycles)
			w.points += len(gpufi.OnChipStructures())
		}
		w.serialS += runs * profS
	}
	return nil
}

func (w *evalMatrix) offTimer() (float64, float64) {
	return w.serialS, float64(w.points * w.runs)
}

func (w *evalMatrix) pass(ctx context.Context, rec *recorder) passResult {
	res := passResult{ok: true, exact: exact{WAVF: map[string]string{}, FIT: map[string]string{}}}
	root, endPass := rec.begin("", "harness", "pass")
	defer endPass()
	for _, app := range w.apps {
		id, end := rec.begin(root, "core", "core.evaluate."+app.Name)
		ev, err := gpufi.Evaluate(traceCtx(ctx, rec, id), app, gpufi.RTX2060(),
			gpufi.EvalConfig{Runs: w.runs, Seed: w.seed, Workers: 2})
		end()
		if err != nil {
			// The matrix size is only known from a finished evaluation:
			// count a failed one as a single point.
			res.ops += w.runs
			res.lost += w.runs
			res.fail("evaluate %s: %v", app.Name, err)
			continue
		}
		for _, ke := range ev.Kernels {
			for _, sa := range ke.Structs {
				res.ops += w.runs
				if sa.Counts.Total() != w.runs {
					res.lost += w.runs - sa.Counts.Total()
					res.fail("%s/%s/%s finished %d of %d experiments",
						app.Name, ke.Kernel, sa.Structure, sa.Counts.Total(), w.runs)
				}
				res.exact.Counts.Merge(sa.Counts)
				res.kinstr += float64(w.runs) * float64(w.instr[app.Name]) / 1e3
			}
		}
		res.exact.WAVF[app.Name] = sig6(ev.WAVF)
		res.exact.FIT[app.Name] = sig6(ev.FIT)
	}
	return res
}

func (w *evalMatrix) counters() map[string]float64 { return nil }
func (w *evalMatrix) close()                       {}

// ---- service-sharded -----------------------------------------------------

// serviceSharded runs the campaign-late point through the whole service:
// a durable store, a shard coordinator behind HTTP and two shard workers,
// driven by one closed-loop client. A pass is one campaign, submit to
// fetched log.
type serviceSharded struct {
	seed int64
	runs int
	tmp  string
	// noWorkers leaves the cluster without shard workers, for the probe
	// that plays the worker itself.
	noWorkers bool

	dir     string
	st      *store.Store
	co      *shard.Coordinator
	srv     *service.Server
	ts      *httptest.Server
	stop    context.CancelFunc
	workers []chan struct{}

	spec    store.Spec
	lib     *core.CampaignResult // the library run of spec; Exps are in id order
	ref     map[string][]byte    // its journal records by "type:id"
	instr   int64
	serialS float64 // fault-free simulation per campaign, see offTimer
	next    int

	// Request timings collected over the passes, for the service layer.
	submitMS, statusUS, logMS []float64
}

const serviceShards = 8

// offTimer: the coordinator plans the campaign once and each shard's
// worker derives the whole campaign's fault list again.
func (w *serviceSharded) offTimer() (float64, float64) {
	return w.serialS, float64((serviceShards + 1) * w.runs)
}

func (w *serviceSharded) setup(ctx context.Context, rec *recorder) error {
	dir, err := os.MkdirTemp(w.tmp, "store-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.st, err = store.Open(dir); err != nil {
		return err
	}
	w.co = shard.NewCoordinator(w.st, shard.Options{ShardsPerCampaign: serviceShards})
	w.srv = service.New(w.st, service.Options{Workers: 2, Coordinator: w.co})
	if _, err := w.srv.Start(nil); err != nil {
		return err
	}
	w.ts = httptest.NewServer(w.srv.Handler())
	wctx, stop := context.WithCancel(context.Background())
	w.stop = stop
	w.workers = nil
	for _, name := range []string{"w1", "w2"} {
		if w.noWorkers {
			break
		}
		sw := &shard.Worker{Base: w.ts.URL, Name: name, BatchSize: 64, Poll: 5 * time.Millisecond}
		done := make(chan struct{})
		w.workers = append(w.workers, done)
		go func() {
			defer close(done)
			sw.Run(wctx) // returns ctx's error at shutdown; nothing to report
		}()
	}

	// The library run of the same spec: what the merged journal must
	// equal, record for record.
	app, err := gpufi.AppByName(lateApp)
	if err != nil {
		return err
	}
	prof, profS, err := timedProfile(ctx, rec, app)
	if err != nil {
		return err
	}
	w.instr = profileInstr(prof)
	w.spec = lateSpec(w.seed, w.runs, prof)
	// Each of the campaign's shards re-runs the prefix up to its own last
	// snapshot; the shards split the final invocation window evenly.
	ks := prof.Kernels[lateKernel]
	win := ks.Windows[len(ks.Windows)-1]
	w.serialS = 0
	for s := 1; s <= serviceShards; s++ {
		end := float64(win.Start) + float64(s)*float64(win.End-win.Start)/serviceShards
		w.serialS += profS * end / float64(prof.TotalCycles)
	}
	cfg, err := w.spec.Config()
	if err != nil {
		return err
	}
	cfg.Workers = 2 // outcomes do not depend on the worker count
	_, end := rec.begin("", "core", "core.reference_run")
	lib, err := core.RunCampaign(ctx, cfg, prof)
	end()
	if err != nil {
		return fmt.Errorf("library reference run: %v", err)
	}
	var buf bytes.Buffer
	if err := store.WriteLog(&buf, lib); err != nil {
		return err
	}
	if w.ref, err = journalRecords(&buf); err != nil {
		return err
	}
	w.lib = lib
	return nil
}

// journalRecords keys every journal line by "type:id" ("campaign" for the
// header); a repeated experiment record is an error.
func journalRecords(r io.Reader) (map[string][]byte, error) {
	recs := map[string][]byte{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		var probe struct {
			Type string `json:"type"`
			ID   int    `json:"id"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("bad journal line %q: %v", line, err)
		}
		key := probe.Type
		if probe.Type != "campaign" {
			key = probe.Type + ":" + strconv.Itoa(probe.ID)
		}
		if _, dup := recs[key]; dup {
			return nil, fmt.Errorf("journal record %s appears twice", key)
		}
		recs[key] = line
	}
	return recs, sc.Err()
}

// submit POSTs the spec under a fresh campaign id.
func (w *serviceSharded) submit() (string, error) {
	w.next++
	id := fmt.Sprintf("ledger-%04d", w.next)
	body, err := json.Marshal(struct {
		ID string `json:"id"`
		store.Spec
	}{id, w.spec})
	if err != nil {
		return id, err
	}
	start := time.Now()
	err = postJSON(w.ts.URL+"/v1/campaigns", body)
	w.submitMS = append(w.submitMS, time.Since(start).Seconds()*1e3)
	return id, err
}

// campaignStatus is the part of GET /v1/campaigns/{id} the client reads.
type campaignStatus struct {
	State  string       `json:"state"`
	Error  string       `json:"error"`
	Counts gpufi.Counts `json:"counts"`
}

// status GETs the campaign's state; a campaign that ended failed or
// cancelled is an error.
func (w *serviceSharded) status(id string) (campaignStatus, error) {
	var st campaignStatus
	start := time.Now()
	resp, err := http.Get(w.ts.URL + "/v1/campaigns/" + id)
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
	}
	w.statusUS = append(w.statusUS, time.Since(start).Seconds()*1e6)
	if err == nil && (st.State == "failed" || st.State == "cancelled") {
		err = fmt.Errorf("campaign %s ended %s: %s", id, st.State, st.Error)
	}
	return st, err
}

func (w *serviceSharded) done(id string) (bool, error) {
	st, err := w.status(id)
	return st.State == "done", err
}

// checkLog fetches the merged journal and compares it, record for record,
// with the library run.
func (w *serviceSharded) checkLog(id string) error {
	start := time.Now()
	resp, err := http.Get(w.ts.URL + "/v1/campaigns/" + id + "/log")
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	w.logMS = append(w.logMS, time.Since(start).Seconds()*1e3)
	if err != nil {
		return fmt.Errorf("log of %s: %v", id, err)
	}
	got, err := journalRecords(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("log of %s: %v", id, err)
	}
	if len(got) != len(w.ref) {
		return fmt.Errorf("campaign %s: %d journal records, library run has %d", id, len(got), len(w.ref))
	}
	for key, want := range w.ref {
		if !bytes.Equal(got[key], want) {
			return fmt.Errorf("campaign %s: journal record %s differs from the library run", id, key)
		}
	}
	return nil
}

func (w *serviceSharded) pass(ctx context.Context, rec *recorder) passResult {
	res := passResult{ok: true, ops: w.runs}
	root, endPass := rec.begin("", "harness", "pass")
	defer endPass()

	start := time.Now()
	_, end := rec.begin(root, "service", "service.submit")
	id, err := w.submit()
	end()
	if err != nil {
		res.lost = w.runs
		res.fail("submit: %v", err)
		return res
	}
	waitID, endWait := rec.begin(root, "service", "service.wait_done")
	var st campaignStatus
	for st.State != "done" && err == nil {
		_, end := rec.begin(waitID, "service", "service.status_get")
		st, err = w.status(id)
		end()
		if err == nil && st.State != "done" {
			select {
			case <-ctx.Done():
				err = ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	endWait()
	if err != nil {
		res.lost = w.runs - st.Counts.Total()
		res.fail("%v", err)
		return res
	}
	res.seconds = time.Since(start).Seconds()

	_, end = rec.begin(root, "service", "service.log_fetch")
	err = w.checkLog(id)
	end()
	if err != nil {
		res.fail("%v", err)
	}
	if rec != nil {
		// The spans the service and its workers already emit for every
		// campaign, collected under this pass.
		if f, err := w.st.OpenSpans(id); err == nil {
			err = rec.addJSONL(f, waitID)
			f.Close()
			if err != nil {
				res.fail("%v", err)
			}
		}
	}
	if st.Counts.Total() != w.runs {
		res.lost = w.runs - st.Counts.Total()
		res.fail("campaign %s finished %d of %d experiments", id, st.Counts.Total(), w.runs)
	}
	res.exact.Counts = st.Counts
	res.kinstr = float64(w.runs) * float64(w.instr) / 1e3
	return res
}

func (w *serviceSharded) counters() map[string]float64 {
	s := w.co.Stats()
	return map[string]float64{
		"shard.batches":        float64(s.Batches),
		"shard.records_duped":  float64(s.RecordsDuped),
		"shard.reissued":       float64(s.ShardsReissued),
		"shard.lease_expiries": float64(s.LeaseExpiries),
		"service.campaigns":    float64(len(w.submitMS)),
		"service.polls":        float64(len(w.statusUS)),
	}
}

func (w *serviceSharded) close() {
	if w.stop != nil {
		w.stop()
		for _, done := range w.workers {
			<-done
		}
		w.stop = nil
	}
	if w.ts != nil {
		w.ts.Close()
		w.ts = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}
