// Package service is the campaign-injection service behind gpufi-serve:
// an HTTP front end over the durable campaign store, with a bounded FIFO
// job queue feeding a pool of campaign runners. Every campaign runs through
// a shard coordinator: one the caller attaches, whose workers are other
// nodes, or one the service builds over its own store, whose workers are
// goroutines of this process. Campaigns are submitted as jobs, observed
// live over SSE, downloaded as JSONL journals, and cancelled by request; on
// startup the service scans its store and resumes every campaign whose
// control log holds no done or cancel record, so a killed server loses at
// most one journal batch of work.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime/debug"
	"sync"
	"time"

	"gpufi/internal/avf"
	"gpufi/internal/core"
	"gpufi/internal/obs"
	"gpufi/internal/plan"
	"gpufi/internal/shard"
	"gpufi/internal/store"
)

// Options tunes the service.
type Options struct {
	// Workers is the number of concurrent campaign runners (each campaign
	// additionally parallelizes its experiments). Default 1. Without a
	// Coordinator it is also the number of in-process shard workers.
	Workers int
	// QueueDepth bounds the submission queue; a full queue rejects POSTs
	// with 503. Default 64. Campaigns resumed at startup bypass the bound
	// — refusing recovery because the queue is small would lose work.
	QueueDepth int
	// Logger receives structured lifecycle and request logs (job state
	// transitions, job panics with their stacks, HTTP requests with their
	// X-Request-ID). Nil discards logs, keeping library consumers and tests
	// quiet.
	Logger *slog.Logger
	// Coordinator is the shard coordinator every job runs through: it
	// shards the campaign, leases the shards to the workers that claim them
	// over the /v1/shards endpoints, and merges their journal batches into
	// the store. Nil builds one over the service's own store and starts
	// Workers in-process shard workers against it, which call it directly;
	// a Coordinator given here gets no in-process workers, only the worker
	// nodes that reach it over HTTP.
	Coordinator *shard.Coordinator
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// event is one SSE payload: a name and a JSON-encodable body.
type event struct {
	name string
	data any
}

// job is one campaign submission moving through the queue.
type job struct {
	id      string
	spec    store.Spec
	state   string
	errMsg  string
	counts  avf.Counts
	total   int
	done    int  // experiments finished (including journaled prior ones)
	resumed bool // re-queued from the store at startup or by resubmit

	// rule is the campaign's adaptive stop rule (nil for fixed-N jobs);
	// analytic counts the records the pre-pass classified without
	// simulation, and plan is the planner's terminal report.
	rule     *plan.Rule
	analytic int
	plan     *core.PlanReport

	enqueuedAt  time.Time // when the job entered the queue
	startedAt   time.Time // when a runner popped it
	doneAtStart int       // j.done when it started running, for ETA

	// trace is the campaign's root trace ID, assigned at submission so
	// even a queued job's status (and every SSE event built from it)
	// carries the ID a client needs to fetch the timeline later. The
	// root span itself starts when the job runs.
	trace obs.TraceID

	cancel    context.CancelFunc // non-nil while running
	userAbort bool               // cancellation was requested, not a crash
	subs      map[chan event]struct{}
	finished  chan struct{} // closed on any terminal state
}

// testJobHook, when non-nil, runs at the start of every job. It is a
// test-only knob for holding a runner or panicking inside a job; set it
// before Start and clear it after Close.
var testJobHook func(id string)

// localLeaseTTL is the lease TTL of the coordinator a local node builds.
// Its workers die with the process: a lease the control WAL restores goes
// back at once to a worker of the same name that claims, and one naming a
// worker this lifetime does not start waits out the TTL, not the 15 s a
// remote worker's network hiccup is allowed.
const localLeaseTTL = 2 * time.Second

// Server is the campaign service: a store, a queue, a worker pool, and the
// shard coordinator every job runs through.
type Server struct {
	st   *store.Store
	opts Options
	co   *shard.Coordinator
	// local are the in-process shard workers of a node whose coordinator
	// New built; none when Options carries a Coordinator.
	local []*shard.Worker

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	queue    []*job // FIFO; resumed jobs may exceed QueueDepth
	closed   bool
	started  bool
	draining bool // intake stopped; queued and running jobs finish

	cancelBase context.CancelFunc
	wg         sync.WaitGroup

	metrics metrics
}

// New builds a service over st. Call Start to scan the store for
// resumable campaigns and launch the worker pool; the Handler routes
// requests either way (jobs submitted before Start simply wait queued).
func New(st *store.Store, opts Options) *Server {
	s := &Server{st: st, opts: opts.withDefaults(), co: opts.Coordinator, jobs: make(map[string]*job)}
	if s.co == nil {
		s.co = shard.NewCoordinator(st, shard.Options{LeaseTTL: localLeaseTTL, Logger: s.opts.Logger})
		for i := range s.opts.Workers {
			s.local = append(s.local, &shard.Worker{Coordinator: s.co,
				Name: fmt.Sprintf("local-%d", i+1), Logger: s.opts.Logger})
		}
	}
	s.cond = sync.NewCond(&s.mu)
	s.metrics.init()
	s.registerShardMetrics()
	return s
}

// Start scans the store for unfinished campaigns, queues them for resume,
// and launches the worker pool under ctx. It returns the resumed ids.
func (s *Server) Start(ctx context.Context) ([]string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return nil, fmt.Errorf("service: already started")
	}
	s.started = true
	s.mu.Unlock()

	// Unfinished lists an unreadable campaign too; Inspect fails its job.
	open, err := s.st.Unfinished()
	if err != nil && len(open) == 0 {
		return nil, err
	}
	var resumed []string
	for _, id := range open {
		info, err := s.st.Inspect(id)
		if err != nil {
			// A campaign too corrupt to inspect must not wedge startup;
			// surface it as a failed job instead.
			s.mu.Lock()
			j := &job{id: id, state: StateFailed, errMsg: err.Error(),
				subs: make(map[chan event]struct{}), finished: make(chan struct{})}
			close(j.finished)
			s.jobs[id] = j
			s.metrics.failed.Add(1)
			s.mu.Unlock()
			continue
		}
		s.mu.Lock()
		j := s.newJobLocked(id, info.Spec)
		j.resumed = true
		j.counts = info.Counts
		j.done = info.Completed
		j.analytic = info.Analytic
		s.queue = append(s.queue, j) // recovery bypasses the queue bound
		s.cond.Signal()
		s.mu.Unlock()
		// Until this campaign's Run rebuilds its shard table from the
		// control WAL, workers holding pre-restart leases must hear
		// "recovering, retry" — not "unknown shard, abandon".
		s.co.MarkRecovering(id)
		resumed = append(resumed, id)
	}
	if len(resumed) > 0 {
		// Crash-recovery start: stamp the moment into the flight ring and
		// dump it, so the post-mortem of the previous lifetime's death has
		// a durable marker even before any campaign timeline reopens.
		obs.Flight().Event("coordinator.recovery_start", "coordinator",
			obs.Attr{K: "campaigns", V: fmt.Sprintf("%d", len(resumed))})
		if n, err := obs.Flight().DumpTo(s.st.FlightPath()); err == nil {
			s.opts.Logger.Info("flight ring dumped at recovery start",
				"records", n, "path", s.st.FlightPath())
		}
	}

	base, cancel := context.WithCancel(ctx)
	s.cancelBase = cancel
	for w := 0; w < s.opts.Workers; w++ {
		s.wg.Add(1)
		go s.runner(base)
	}
	for _, w := range s.local {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Run(base)
		}()
	}
	// A cancelled base context must also wake idle workers.
	go func() {
		<-base.Done()
		s.mu.Lock()
		s.closed = true
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	return resumed, nil
}

// Close stops accepting work, cancels running campaigns, and waits for
// the workers to drain. Unfinished campaigns keep their journals and are
// resumed by the next Start on the same store.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	cancel := s.cancelBase
	s.cond.Broadcast()
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.wg.Wait()
}

// newJobLocked registers a queued job; the caller holds s.mu and appends
// it to the queue.
func (s *Server) newJobLocked(id string, spec store.Spec) *job {
	j := &job{
		id: id, spec: spec, state: StateQueued, total: spec.Runs,
		rule:       spec.PlanRule(),
		enqueuedAt: time.Now(),
		trace:      obs.NewTraceID(),
		subs:       make(map[chan event]struct{}), finished: make(chan struct{}),
	}
	s.jobs[id] = j
	s.metrics.queued.Add(1)
	return j
}

// submit validates and enqueues a campaign. It returns the campaign's status
// as queued, built under the lock that queues it — a runner may take the job
// the moment the lock is released — or an httpError describing why the
// submission was refused.
func (s *Server) submit(id string, spec store.Spec) (status, error) {
	if _, err := spec.Config(); err != nil {
		return status{}, &httpError{code: 400, msg: err.Error()}
	}
	if id == "" {
		id = spec.ID()
	}
	if !store.ValidID(id) {
		return status{}, &httpError{code: 400, msg: fmt.Sprintf("invalid campaign id %q", id)}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return status{}, &httpError{code: 503, msg: "service shutting down"}
	}
	if s.draining {
		return status{}, &httpError{code: 503, msg: "service draining; not accepting campaigns"}
	}
	if j, ok := s.jobs[id]; ok {
		switch j.state {
		case StateQueued, StateRunning:
			return status{}, &httpError{code: 409, msg: fmt.Sprintf("campaign %s is %s", id, j.state)}
		case StateDone:
			return status{}, &httpError{code: 409, msg: fmt.Sprintf("campaign %s is already complete", id)}
		}
		// Failed or cancelled: fall through and requeue as a resume.
	}
	if info, err := s.st.Inspect(id); err == nil {
		if info.Done {
			return status{}, &httpError{code: 409, msg: fmt.Sprintf("campaign %s is already complete", id)}
		}
		if info.Cancelled { // resubmitting a cancelled campaign resumes it
			if err := s.st.ClearCancelled(id); err != nil {
				return status{}, &httpError{code: 500, msg: err.Error()}
			}
		}
	} else if !errors.Is(err, store.ErrNotFound) {
		return status{}, &httpError{code: 500, msg: err.Error()}
	}
	if len(s.queue) >= s.opts.QueueDepth {
		return status{}, &httpError{code: 503, msg: "job queue full; retry later"}
	}
	j := s.newJobLocked(id, spec)
	s.queue = append(s.queue, j)
	s.cond.Signal()
	return s.statusLocked(j), nil
}

// runner pops jobs FIFO and runs each, once, to its terminal state. A
// panic inside a job fails that job (runJob's recover); a runner has no
// other recovery, because everything else it runs is the service's own
// bookkeeping, and a crashed process resumes from the store.
func (s *Server) runner(base context.Context) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		ctx, cancel := context.WithCancel(base)
		j.state = StateRunning
		j.cancel = cancel
		j.startedAt = time.Now()
		j.doneAtStart = j.done
		s.metrics.queueWait.Observe(j.startedAt.Sub(j.enqueuedAt).Seconds())
		s.metrics.queued.Add(-1)
		s.metrics.running.Add(1)
		s.broadcastLocked(j, event{name: "state", data: s.statusLocked(j)})
		s.mu.Unlock()
		s.opts.Logger.Info("job started", "id", j.id, "resumed", j.resumed)

		res, err := s.runJob(ctx, j)
		cancel()
		s.finishJob(base, j, res, err)
	}
}

// runJob runs a campaign through the coordinator. A panic out of the
// coordinator or the store fails the job instead of unwinding the runner:
// its stack goes to the log, and the error the job reports over HTTP names
// only the panic's value. The journal's deferred closes run during the
// unwind, so the campaign stays resumable by a resubmission. Nothing
// retries it: every step before the first shard is a deterministic
// function of the spec and the campaign directory, and would panic again.
//
// The job runs under its root span: the span sink persists the campaign's
// timeline to spans.jsonl through the store (synced with the journal, on
// its clock, but a separate file — journal bytes are untouched by
// tracing), and a panicking job dumps the process flight ring next to it.
func (s *Server) runJob(ctx context.Context, j *job) (res *core.CampaignResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.workerPanics.Add(1)
			s.opts.Logger.Error("job panicked", "id", j.id, "panic", r, "stack", string(debug.Stack()))
			err = fmt.Errorf("campaign panicked: %v", r)
			if n, dErr := obs.Flight().DumpTo(s.st.FlightPath()); dErr == nil {
				s.opts.Logger.Warn("flight ring dumped after job panic",
					"id", j.id, "records", n, "path", s.st.FlightPath())
			}
		}
	}()
	if hook := testJobHook; hook != nil {
		hook(j.id)
	}

	tctx := obs.ContextWithTrace(ctx, j.trace)
	tctx = obs.ContextWithNode(tctx, "coordinator")
	if spanLog, slErr := s.st.SpanWriter(j.id); slErr == nil {
		// Registered (not ctx-attached) so worker spans forwarded by the
		// coordinator's Ingest reach the same file; Append after Close is
		// a harmless error, so the close/unregister order is safe.
		obs.RegisterTraceSink(j.trace, func(rec obs.SpanRecord) { spanLog.Append(rec) })
		defer obs.UnregisterTraceSink(j.trace)
		defer spanLog.Close()
	} else {
		s.opts.Logger.Warn("span log unavailable; campaign timeline lost",
			"id", j.id, "err", slErr)
	}
	tctx, root := obs.StartSpan(tctx, "campaign", obs.Attr{K: "id", V: j.id})
	root.Announce() // children survive a crash with a resolvable parent
	defer root.End()
	obs.EmitSpan(tctx, "service.queue", j.enqueuedAt, obs.Attr{K: "id", V: j.id})

	return s.co.Run(tctx, j.id, j.spec, func(exp core.Experiment) { s.onExperiment(j, exp) })
}

// BeginDrain stops the intake: new submissions are refused with 503 and
// readiness flips to unready, while queued and running campaigns keep
// going. Pair it with Drain for a graceful shutdown.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Drain performs a graceful shutdown: it implies BeginDrain, blocks until
// every queued and running job has reached a terminal
// state (or ctx expires), then closes the server. Campaigns still in
// flight when ctx expires are cancelled by Close and stay resumable from
// their journals, so an impatient drain loses at most one fsync batch.
// It returns ctx's error when the deadline cut the drain short.
func (s *Server) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.BeginDrain()
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		case <-watchDone:
		}
	}()
	s.mu.Lock()
	for ctx.Err() == nil && !s.closed &&
		(len(s.queue) > 0 || s.metrics.running.Load() > 0) {
		s.cond.Wait()
	}
	err := ctx.Err()
	s.mu.Unlock()
	s.Close()
	return err
}

// onExperiment updates a running job's live counts and fans the progress
// event out to SSE subscribers; with none, it builds no event.
func (s *Server) onExperiment(j *job, exp core.Experiment) {
	s.metrics.experiments.Add(1)
	if exp.Quarantined {
		s.metrics.quarantined.Add(1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j.counts.Add(exp.Outcome)
	j.done++
	if exp.Detail == core.AnalyticDetail {
		j.analytic++
	}
	ratio := 0.0
	if j.total > 0 {
		ratio = float64(j.done) / float64(j.total)
	}
	s.metrics.progress.Set(j.id, ratio)
	if len(j.subs) == 0 {
		return // nobody would read the events below
	}
	if exp.Quarantined {
		// A sandboxed experiment (panic or wall-clock expiry) is worth a
		// dedicated event: it is the signal that a fault specification is
		// poisoning the simulator, not an ordinary outcome.
		s.broadcastLocked(j, event{name: "quarantine", data: map[string]any{
			"id":     j.id,
			"exp":    exp.ID,
			"effect": exp.Effect,
			"detail": exp.Detail,
		}})
	}
	// ETA from this run's own throughput (resumed work is excluded via
	// doneAtStart, so a 90%-journaled campaign doesn't project 10x speed).
	eta := -1.0
	if ran := j.done - j.doneAtStart; ran > 0 && j.done < j.total {
		perExp := time.Since(j.startedAt).Seconds() / float64(ran)
		eta = perExp * float64(j.total-j.done)
	}
	data := map[string]any{
		"id":          j.id,
		"exp":         exp.ID,
		"effect":      exp.Effect,
		"done":        j.done,
		"total":       j.total,
		"ratio":       ratio,
		"eta_seconds": eta,
	}
	if j.rule != nil {
		// Live convergence signal for adaptive campaigns: the planner's
		// interval half-width over everything journaled so far, and how much
		// of it the analytic pre-pass contributed for free. After the last
		// record it is the half-width of the terminal report.
		data["ci_half_width"] = j.halfWidth()
		data["analytic"] = j.analytic
	}
	s.broadcastLocked(j, event{name: "progress", data: data})
}

// halfWidth is the stop rule's interval half-width over an adaptive job's
// live tally, estimated the way the planner estimates it: the analytic
// records — all Masked, all journaled before the first simulated one — are
// the exact zero-failure stratum, and the binomial runs over the rest,
// scaled by its share of the campaign. The caller holds s.mu.
func (j *job) halfWidth() float64 {
	t := plan.NewTracker(*j.rule)
	t.AddAnalytic(j.analytic)
	t.SetStratum(j.total - j.analytic)
	simulated := j.counts
	simulated.Masked -= j.analytic
	t.AddCounts(simulated)
	return t.HalfWidth()
}

// finishJob moves a job to its terminal state and notifies everyone
// waiting on it.
func (s *Server) finishJob(base context.Context, j *job, res *core.CampaignResult, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics.running.Add(-1)
	s.metrics.progress.Delete(j.id)
	if !j.startedAt.IsZero() {
		s.metrics.jobSeconds.Observe(time.Since(j.startedAt).Seconds())
	}
	j.cancel = nil
	switch {
	case err == nil:
		j.state = StateDone
		if res != nil {
			j.counts = res.Counts
			j.done = res.Counts.Total()
			if res.Plan != nil {
				j.plan = res.Plan
				if res.Plan.Satisfied {
					s.metrics.planSatisfied.Add(1)
				}
				s.metrics.planSaved.Add(int64(res.Plan.Skipped))
			}
		}
		s.metrics.done.Add(1)
	case isCancel(err):
		if j.userAbort {
			j.state = StateCancelled
			j.errMsg = "cancelled by request"
			s.metrics.cancelled.Add(1)
			// Remember the cancellation across restarts, so the resume
			// scan skips this campaign until it is resubmitted.
			if markErr := s.st.MarkCancelled(j.id); markErr != nil && !errors.Is(markErr, store.ErrNotFound) {
				j.errMsg = fmt.Sprintf("cancelled by request; cancel record: %v", markErr)
			}
		} else if base.Err() != nil {
			// Server shutdown: the journal stays resumable; the job's
			// final state only matters for this process's lifetime.
			j.state = StateCancelled
			j.errMsg = "server shutting down"
			s.metrics.cancelled.Add(1)
		} else {
			j.state = StateFailed
			j.errMsg = err.Error()
			s.metrics.failed.Add(1)
		}
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		s.metrics.failed.Add(1)
	}
	s.broadcastLocked(j, event{name: "state", data: s.statusLocked(j)})
	close(j.finished)
	s.cond.Broadcast() // a Drain waiter watches for quiescence
	if j.errMsg != "" {
		s.opts.Logger.Info("job finished", "id", j.id, "state", j.state, "error", j.errMsg)
	} else {
		s.opts.Logger.Info("job finished", "id", j.id, "state", j.state, "done", j.done)
	}
}

// cancelJob handles DELETE: a queued job is unqueued, a running one has
// its context cancelled; the resulting state change is observed through
// the job's finished channel.
func (s *Server) cancelJob(id string) (string, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		// Not in this process: a stored campaign can still be marked so
		// a later restart does not resume it.
		if err := s.st.MarkCancelled(id); errors.Is(err, store.ErrNotFound) {
			return "", &httpError{code: 404, msg: fmt.Sprintf("unknown campaign %s", id)}
		} else if err != nil {
			return "", &httpError{code: 500, msg: err.Error()}
		}
		return StateCancelled, nil
	}
	switch j.state {
	case StateQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		j.state = StateCancelled
		j.errMsg = "cancelled while queued"
		// A queued campaign may already be on disk (resumed at Start, or
		// resubmitted): remember the cancellation across restarts, as
		// finishJob does for a running one.
		if markErr := s.st.MarkCancelled(id); markErr != nil && !errors.Is(markErr, store.ErrNotFound) {
			j.errMsg = fmt.Sprintf("cancelled while queued; cancel record: %v", markErr)
		}
		s.metrics.queued.Add(-1)
		s.metrics.cancelled.Add(1)
		s.broadcastLocked(j, event{name: "state", data: s.statusLocked(j)})
		close(j.finished)
		s.cond.Broadcast() // a Drain waiter watches for quiescence
		s.mu.Unlock()
		// Its Run never began, so nothing else takes it off the
		// coordinator's recovering list.
		s.co.Revoke(id)
		return StateCancelled, nil
	case StateRunning:
		j.userAbort = true
		cancel := j.cancel
		fin := j.finished
		s.mu.Unlock()
		// Close the campaign to claims and journal batches NOW, not when
		// the runner observes its context: a worker racing the DELETE must
		// get a typed 409, never resurrect the campaign.
		s.co.Revoke(id)
		if cancel != nil {
			cancel()
		}
		<-fin // deterministic: respond only once the journal is synced
		s.mu.Lock()
		state := j.state
		s.mu.Unlock()
		return state, nil
	default:
		state := j.state
		s.mu.Unlock()
		return state, &httpError{code: 409, msg: fmt.Sprintf("campaign %s already %s", id, state)}
	}
}

// subscribe attaches an SSE listener to a job, returning the channel, the
// job's current status snapshot, and its finished channel.
func (s *Server) subscribe(j *job) (ch chan event, snapshot any, fin chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch = make(chan event, 512)
	j.subs[ch] = struct{}{}
	return ch, s.statusLocked(j), j.finished
}

func (s *Server) unsubscribe(j *job, ch chan event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(j.subs, ch)
}

// broadcastLocked fans an event to a job's subscribers, dropping events
// for any subscriber whose buffer is full (slow SSE clients observe the
// terminal state through the finished channel regardless).
func (s *Server) broadcastLocked(j *job, ev event) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// isCancel reports a context-cancellation error.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// httpError carries a status code (and optionally a machine-readable
// error kind for the envelope's "code" field) through the handler
// plumbing. An empty kind falls back to a default derived from the
// status code in writeErr.
type httpError struct {
	code int
	kind string
	msg  string

	// retryAfter, in seconds, emits a Retry-After header when positive —
	// the coordinator_recovering 503 uses it to tell workers the outage
	// is expected to be brief.
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }
