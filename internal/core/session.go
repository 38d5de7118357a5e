package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"gpufi/internal/obs"
	"gpufi/internal/sim"
)

// This file is the engine session: one campaign's engine runs, whoever asks
// for them — RunCampaign's rounds, a shard worker's shards, EvaluateApp's one
// run of its whole matrix. Every run goes through Session.runPoints. The
// session keeps the fault-free prefix between its runs: a run's prefix, having
// published its last cluster, parks in its SnapshotAt callback instead of
// ending, and the next run continues it when every capture cycle that run
// needs lies ahead of where it stopped; otherwise that run starts a prefix
// from cycle 0. The prefix is fault-free and the simulator deterministic, so a
// capture the continued prefix takes is the capture a new one would take at
// that cycle. A shard worker's shards of one campaign arrive in injection-
// cycle order, so most of them continue the prefix their predecessor parked.

// Session runs one campaign's experiments, or one evaluation's points, on the
// snapshot-and-fork engine, one run at a time. It is not safe for concurrent
// use. Close releases the prefix device it keeps between runs.
type Session struct {
	prof *Profile
	cfg  *CampaignConfig // Run's campaign; nil when the caller hands runPoints its points
	cp   *campaignPlan
	pre  *prefix // parked after the last run's final capture, or nil
}

// NewSession plans cfg's campaign against prof, once, for runs of its
// experiments by index (Run). The plan covers every index, whatever
// cfg.Completed says, and cfg.Plan is not consulted: a session runs the
// indices it is handed, fixed-N.
func NewSession(cfg *CampaignConfig, prof *Profile) (*Session, error) {
	c := *cfg
	c.Completed, c.PlanPrior, c.Plan, c.Sink = nil, nil, nil, nil
	cp, err := planCampaign(&c, prof)
	if err != nil {
		return nil, err
	}
	return &Session{prof: prof, cfg: &c, cp: cp}, nil
}

// Run executes the experiments at indices — in any order; an index outside
// the campaign is ignored and a repeated one runs once — handing each finished
// one to sink, and returns their result. A cancelled run returns ctx's error
// and what finished.
func (s *Session) Run(ctx context.Context, indices []int, sink func(Experiment) error) (*CampaignResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pending := make([]int, 0, len(indices))
	for _, i := range indices {
		if i >= 0 && i < s.cfg.Runs {
			pending = append(pending, i)
		}
	}
	slices.Sort(pending)
	cfg := *s.cfg
	cfg.Sink = sink
	return s.runPoint(ctx, &cfg, s.cp, slices.Compact(pending))
}

// Close ends and releases the parked prefix, if there is one.
func (s *Session) Close() {
	if s.pre != nil {
		s.pre.end()
		s.pre = nil
	}
}

// runPoint is the one-point engine run of one round, or of one shard.
func (s *Session) runPoint(ctx context.Context, cfg *CampaignConfig, cp *campaignPlan, pending []int) (*CampaignResult, error) {
	res, err := s.runPoints(ctx, []*point{{cfg: cfg, plan: cp, pending: pending}})
	if res == nil {
		return nil, err
	}
	return res[0], err
}

// prefixHook, when set, runs on the prefix goroutine at every capture, with
// the number of captures that prefix took before it. Only tests set it
// (export_test.go), to fail a prefix at a chosen instant.
var prefixHook atomic.Pointer[func(n int)]

// prefix is a session's fault-free prefix run: the application executing on
// one borrowed device, on a goroutine of its own, capturing at the cycles of
// the run it serves. Between runs it waits in its SnapshotAt callback right
// after its last capture. The session's goroutine touches the device only
// then, or once the application has returned: each hand-over is a channel
// operation.
type prefix struct {
	g        *sim.GPU
	run      *pipeline // the run it captures for
	next     int       // clusters of run published so far
	at       uint64    // cycle of its last capture
	captures int
	mark     time.Time // start of the current engine.snapshot span

	parked   chan struct{} // run's last cluster is published: waiting on resume
	resume   chan bool     // true: capture for the new run; false: end
	ended    chan error    // the application returned: its error
	panicked bool          // the application panicked: the device is suspect
}

// startPrefix borrows a device and starts the application on it, fault-free,
// capturing at cycles for run.
func startPrefix(run *pipeline, cycles []uint64) (*prefix, error) {
	cfg := run.points[0].cfg
	g, err := sim.Borrow(cfg.GPU)
	if err != nil {
		return nil, err
	}
	g.SetContext(run.ctx)
	g.EnableRecording()
	// The prefix is fault-free, but bound it anyway so a scheduling bug
	// cannot hang the campaign.
	g.CycleLimit = 4 * run.prof.TotalCycles
	p := &prefix{g: g, run: run, mark: time.Now(),
		parked: make(chan struct{}), resume: make(chan bool), ended: make(chan error, 1)}
	g.SnapshotAt(cycles, p.capture)
	prefixesStarted.Inc()
	go func() {
		var err error
		defer func() {
			// A panic here would end the process and every campaign in it:
			// it ends this run instead, and the device is never reused.
			if r := recover(); r != nil {
				p.panicked = true
				err = fmt.Errorf("core: fault-free prefix run of %s panicked: %v", cfg.App.Name, r)
			}
			p.ended <- err
		}()
		_, err = cfg.App.Run(g)
	}()
	return p, nil
}

// carryOn resumes a parked prefix for run, capturing at cycles, all of them
// past the cycle it is parked at.
func (p *prefix) carryOn(run *pipeline, cycles []uint64) {
	p.run, p.next, p.mark = run, 0, time.Now()
	p.g.SetContext(run.ctx)
	p.g.SnapshotAt(cycles, p.capture)
	prefixesContinued.Inc()
	p.resume <- true
}

// wait blocks until the prefix has parked after its run's last capture, or
// the application has returned, with its error.
func (p *prefix) wait() (parked bool, err error) {
	select {
	case <-p.parked:
		return true, nil
	case err := <-p.ended:
		return false, err
	}
}

// end stops a parked prefix and releases its device.
func (p *prefix) end() {
	p.resume <- false
	<-p.ended
	if !p.panicked {
		p.g.Release()
	}
}

// capture is the prefix's SnapshotAt sink: it publishes cluster k, waits for
// every job of k-1 to let go of its template, retires that template and
// returns, so the device captures k+1 — into k-1's storage — while k executes
// and k-1's longest experiments may still be running. After the run's last
// cluster it parks until the session resumes or ends it.
//
// Tracing: each stretch of the prefix goroutine from one snapshot to the next
// is an engine.snapshot span — simulating, capturing, and wait_ns of it
// blocked on the previous cluster's jobs (near zero on a prefix-bound run,
// most of the span on a worker-bound one) — and each cluster's execution an
// engine.cluster span, from capture until its last experiment finishes,
// carrying its experiments' summed phase times and await_ns, the time workers
// blocked waiting for it to be published.
func (p *prefix) capture(s *sim.Snapshot) error {
	if hook := prefixHook.Load(); hook != nil {
		(*hook)(p.captures)
	}
	p.captures++
	run, k := p.run, p.next
	p.next++
	p.at = s.Cycle
	fl := &run.flights[k]
	fl.snap, fl.left = s, len(run.clusters[k].jobs)
	fl.pins.Store(int64(fl.left))
	if run.traced {
		_, fl.span = obs.StartSpan(run.ctx, "engine.cluster",
			obs.Attr{K: "cluster", V: strconv.Itoa(k)},
			obs.Attr{K: "experiments", V: strconv.Itoa(fl.left)})
	}
	waitStart := time.Now()
	err := run.publish(k)
	wait := time.Since(waitStart)
	if err == nil && k > 0 {
		run.retire(p.g, k-1)
	}
	if run.traced {
		obs.EmitSpan(run.ctx, "engine.snapshot", p.mark,
			obs.Attr{K: "cluster", V: strconv.Itoa(k)},
			obs.Attr{K: "cycle", V: strconv.FormatUint(run.clusters[k].snapCycle, 10)},
			obs.Attr{K: "wait_ns", V: strconv.FormatInt(wait.Nanoseconds(), 10)})
	}
	p.mark = time.Now()
	if err != nil || p.next < len(run.clusters) {
		return err
	}
	p.parked <- struct{}{}
	if !<-p.resume {
		return sim.ErrReplayStop
	}
	return nil
}
