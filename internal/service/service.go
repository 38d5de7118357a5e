// Package service is the campaign-injection service behind gpufi-serve:
// an HTTP front end over the durable campaign store, with a bounded FIFO
// job queue feeding a pool of campaign runners. Campaigns are submitted as
// jobs, observed live over SSE, downloaded as JSONL journals, and
// cancelled by request; on startup the service scans its store and resumes
// every campaign that has a journal but no completion marker, so a killed
// server loses at most one fsync batch of work.
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
	// additionally parallelizes its experiments). Default 1.
	Workers int
	// QueueDepth bounds the submission queue; a full queue rejects POSTs
	// with 503. Default 64. Campaigns resumed at startup bypass the bound
	// — refusing recovery because the queue is small would lose work.
	QueueDepth int
	// MaxRetries is how many times a job whose attempt panicked is
	// re-queued (with exponential backoff) before it is failed. Default 3;
	// negative disables retries. Only panics are retried — an ordinary
	// campaign error (bad spec, full disk) fails the job immediately, since
	// rerunning it would fail the same way.
	MaxRetries int
	// RetryBaseDelay is the backoff before the first retry; each further
	// retry doubles it. Default 500ms.
	RetryBaseDelay time.Duration
	// Logger receives structured lifecycle and request logs (job state
	// transitions, retries, HTTP requests with their X-Request-ID). Nil
	// discards logs, keeping library consumers and tests quiet.
	Logger *slog.Logger
	// Coordinator, when non-nil, switches the service into coordinator
	// mode: instead of running campaigns in-process, each job is sharded
	// and leased to worker nodes over the /v1/shards endpoints, and the
	// coordinator merges their journal batches into the store. The queue,
	// retry, SSE, and resume machinery is unchanged — a coordinated
	// campaign is just a job whose runner is distributed.
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
	switch {
	case o.MaxRetries == 0:
		o.MaxRetries = 3
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	}
	if o.RetryBaseDelay <= 0 {
		o.RetryBaseDelay = 500 * time.Millisecond
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
	id       string
	spec     store.Spec
	state    string
	errMsg   string
	counts   avf.Counts
	total    int
	done     int  // experiments finished (including journaled prior ones)
	resumed  bool // re-queued from the store at startup or by resubmit
	attempts int  // run attempts so far (retries after a panic re-run the job)

	// rule is the campaign's adaptive stop rule (nil for fixed-N jobs);
	// analytic counts the records the pre-pass classified without
	// simulation, and plan is the planner's terminal report.
	rule     *plan.Rule
	analytic int
	plan     *core.PlanReport

	enqueuedAt  time.Time // when the job (re)entered the queue
	startedAt   time.Time // when a worker popped the current attempt
	doneAtStart int       // j.done when the current attempt began, for ETA

	// trace is the campaign's root trace ID, assigned at submission so
	// even a queued job's status (and every SSE event built from it)
	// carries the ID a client needs to fetch the timeline later. The
	// root span itself starts when an attempt runs.
	trace obs.TraceID

	cancel    context.CancelFunc // non-nil while running
	userAbort bool               // cancellation was requested, not a crash
	subs      map[chan event]struct{}
	finished  chan struct{} // closed on any terminal state
}

// panicError wraps a panic recovered at the job boundary, so the retry
// logic can tell a crashed attempt from an ordinary campaign error.
type panicError struct {
	val   any
	stack string
}

func (e *panicError) Error() string { return fmt.Sprintf("campaign panicked: %v", e.val) }

// testJobHook, when non-nil, runs at the start of every job attempt. It
// is a test-only knob for injecting panics into the worker pool; set it
// before Start and clear it after Close.
var testJobHook func(id string, attempt int)

// Server is the campaign service: a store, a queue, and a worker pool.
type Server struct {
	st   *store.Store
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	queue    []*job // FIFO; resumed jobs may exceed QueueDepth
	closed   bool
	started  bool
	draining bool // intake stopped; queued and running jobs finish
	// retryPending counts jobs waiting out a retry backoff: they are in no
	// queue, but the service is not quiescent until they land somewhere.
	retryPending int

	cancelBase context.CancelFunc
	wg         sync.WaitGroup

	metrics metrics
}

// New builds a service over st. Call Start to scan the store for
// resumable campaigns and launch the worker pool; the Handler routes
// requests either way (jobs submitted before Start simply wait queued).
func New(st *store.Store, opts Options) *Server {
	s := &Server{st: st, opts: opts.withDefaults(), jobs: make(map[string]*job)}
	s.cond = sync.NewCond(&s.mu)
	s.metrics.init()
	if s.opts.Coordinator != nil {
		s.registerShardMetrics()
	}
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

	open, err := s.st.Unfinished()
	if err != nil {
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
		s.queue = append(s.queue, j) // recovery bypasses the queue bound
		s.cond.Signal()
		s.mu.Unlock()
		// Coordinator mode: until this campaign's Run rebuilds its shard
		// table from the control WAL, workers holding pre-restart leases
		// must hear "recovering, retry" — not "unknown shard, abandon".
		if co := s.opts.Coordinator; co != nil {
			co.MarkRecovering(id)
		}
		resumed = append(resumed, id)
	}
	if len(resumed) > 0 && s.opts.Coordinator != nil {
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
		go s.superviseWorker(base)
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

// submit validates and enqueues a campaign. It returns the job, or an
// httpError describing why the submission was refused.
func (s *Server) submit(id string, spec store.Spec) (*job, error) {
	if _, err := spec.Config(); err != nil {
		return nil, &httpError{code: 400, msg: err.Error()}
	}
	if id == "" {
		id = spec.ID()
	}
	if !store.ValidID(id) {
		return nil, &httpError{code: 400, msg: fmt.Sprintf("invalid campaign id %q", id)}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, &httpError{code: 503, msg: "service shutting down"}
	}
	if s.draining {
		return nil, &httpError{code: 503, msg: "service draining; not accepting campaigns"}
	}
	if j, ok := s.jobs[id]; ok {
		switch j.state {
		case StateQueued, StateRunning:
			return nil, &httpError{code: 409, msg: fmt.Sprintf("campaign %s is %s", id, j.state)}
		case StateDone:
			return nil, &httpError{code: 409, msg: fmt.Sprintf("campaign %s is already complete", id)}
		}
		// Failed or cancelled: fall through and requeue as a resume.
	}
	if info, err := s.st.Inspect(id); err == nil {
		if info.Done {
			return nil, &httpError{code: 409, msg: fmt.Sprintf("campaign %s is already complete", id)}
		}
		// Resubmitting an on-disk campaign resumes it, clearing any
		// cancellation marker.
		if err := s.st.ClearCancelled(id); err != nil {
			return nil, &httpError{code: 500, msg: err.Error()}
		}
	} else if !errors.Is(err, store.ErrNotFound) {
		return nil, &httpError{code: 500, msg: err.Error()}
	}
	if len(s.queue) >= s.opts.QueueDepth {
		return nil, &httpError{code: 503, msg: "job queue full; retry later"}
	}
	j := s.newJobLocked(id, spec)
	s.queue = append(s.queue, j)
	s.cond.Signal()
	return j, nil
}

// superviseWorker keeps one worker slot alive for the lifetime of the
// pool: if the worker loop is unwound by a panic that escaped the job
// sandbox (a bug in the service's own bookkeeping), the slot is restarted
// instead of the pool silently shrinking until no campaigns run at all.
func (s *Server) superviseWorker(base context.Context) {
	defer s.wg.Done()
	for {
		if s.workerLoop(base) {
			return
		}
		s.metrics.workerRestarts.Add(1)
		s.mu.Lock()
		dead := s.closed
		s.mu.Unlock()
		if dead {
			return
		}
	}
}

// workerLoop pops jobs FIFO and runs them durably through the store. It
// reports true when it exits through the orderly shutdown path and false
// when a panic unwound it (the supervisor then restarts it).
func (s *Server) workerLoop(base context.Context) (clean bool) {
	var cur *job
	defer func() {
		if r := recover(); r != nil {
			s.metrics.workerPanics.Add(1)
			// A job abandoned mid-flight must still reach a terminal state,
			// or its subscribers and cancellers wait forever.
			if cur != nil {
				s.finishJob(base, cur, nil, fmt.Errorf("worker panicked: %v", r))
			}
			clean = false
		}
	}()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return true
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		ctx, cancel := context.WithCancel(base)
		j.state = StateRunning
		j.cancel = cancel
		j.attempts++
		attempt := j.attempts
		j.startedAt = time.Now()
		j.doneAtStart = j.done
		s.metrics.queueWait.Observe(j.startedAt.Sub(j.enqueuedAt).Seconds())
		s.metrics.queued.Add(-1)
		s.metrics.running.Add(1)
		s.broadcastLocked(j, event{name: "state", data: s.statusLocked(j)})
		s.mu.Unlock()
		s.opts.Logger.Info("job started", "id", j.id, "attempt", attempt, "resumed", j.resumed)

		cur = j
		res, err := s.runJob(ctx, j, attempt)
		cancel()
		var pe *panicError
		if errors.As(err, &pe) {
			retried, failErr := s.retryOrFail(base, j, pe)
			if retried {
				cur = nil
				continue
			}
			err = failErr
		}
		s.finishJob(base, j, res, err)
		cur = nil
	}
}

// runJob executes one attempt of a campaign, converting a panic out of
// the store or engine into a *panicError instead of unwinding the worker.
// The journal's deferred closes run during the unwind, so a half-written
// campaign stays resumable by the retry.
//
// Every attempt runs under the job's root span: the span sink persists
// the campaign's timeline to spans.jsonl through the store (synced with
// the journal, on its clock, but a separate file — journal bytes are
// untouched by tracing), and a panicking attempt dumps the process
// flight ring next to it before the retry machinery sees the error.
func (s *Server) runJob(ctx context.Context, j *job, attempt int) (res *core.CampaignResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.workerPanics.Add(1)
			err = &panicError{val: r, stack: string(debug.Stack())}
			if n, dErr := obs.Flight().DumpTo(s.st.FlightPath()); dErr == nil {
				s.opts.Logger.Warn("flight ring dumped after job panic",
					"id", j.id, "records", n, "path", s.st.FlightPath())
			}
		}
	}()
	if hook := testJobHook; hook != nil {
		hook(j.id, attempt)
	}

	node := "local"
	if s.opts.Coordinator != nil {
		node = "coordinator"
	}
	tctx := obs.ContextWithTrace(ctx, j.trace)
	tctx = obs.ContextWithNode(tctx, node)
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
	tctx, root := obs.StartSpan(tctx, "campaign",
		obs.Attr{K: "id", V: j.id},
		obs.Attr{K: "attempt", V: fmt.Sprintf("%d", attempt)},
		obs.Attr{K: "mode", V: node})
	root.Announce() // children survive a crash with a resolvable parent
	defer root.End()
	obs.EmitSpan(tctx, "service.queue", j.enqueuedAt, obs.Attr{K: "id", V: j.id})

	onExp := func(exp core.Experiment) { s.onExperiment(j, exp) }
	if co := s.opts.Coordinator; co != nil {
		return co.Run(tctx, j.id, j.spec, onExp)
	}
	return s.st.Run(tctx, j.id, j.spec, nil, onExp)
}

// retryOrFail decides what happens to a job whose attempt panicked: it
// either schedules the job back onto the queue after an exponential
// backoff (retried true) or declares the retry budget spent and returns
// the error the caller should finish the job with.
func (s *Server) retryOrFail(base context.Context, j *job, pe *panicError) (retried bool, failErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	max := s.opts.MaxRetries
	if j.userAbort || s.closed || base.Err() != nil || j.attempts > max {
		return false, fmt.Errorf("%v (attempt %d of %d)", pe, j.attempts, max+1)
	}
	delay := s.opts.RetryBaseDelay << (j.attempts - 1)
	j.state = StateQueued
	j.cancel = nil
	s.metrics.running.Add(-1)
	s.metrics.queued.Add(1)
	s.metrics.retries.Add(1)
	s.retryPending++
	s.broadcastLocked(j, event{name: "retry", data: map[string]any{
		"id":       j.id,
		"attempt":  j.attempts,
		"max":      max + 1,
		"delay_ms": delay.Milliseconds(),
		"panic":    pe.Error(),
	}})
	s.opts.Logger.Warn("job retry scheduled", "id", j.id, "attempt", j.attempts,
		"max", max+1, "delay", delay, "panic", pe.Error())
	time.AfterFunc(delay, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.retryPending--
		// The job may have been cancelled while it waited out the backoff;
		// only a still-queued job goes back on the queue.
		if j.state == StateQueued {
			j.enqueuedAt = time.Now()
			s.queue = append(s.queue, j)
		}
		s.cond.Broadcast() // wake a worker, and any Drain waiter
	})
	return true, nil
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
// every queued, running, and retry-pending job has reached a terminal
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
		(len(s.queue) > 0 || s.retryPending > 0 || s.metrics.running.Load() > 0) {
		s.cond.Wait()
	}
	err := ctx.Err()
	s.mu.Unlock()
	s.Close()
	return err
}

// onExperiment updates a running job's live counts and fans the progress
// event out to SSE subscribers.
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
	ratio := 0.0
	if j.total > 0 {
		ratio = float64(j.done) / float64(j.total)
	}
	s.metrics.progress.Set(j.id, ratio)
	// ETA from this attempt's own throughput (resumed work is excluded via
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
		// Live convergence signal for adaptive campaigns: the running
		// pooled interval half-width over everything journaled so far, and
		// how much of it the analytic pre-pass contributed for free. The
		// terminal "done" event carries the planner's authoritative
		// stratified report.
		data["ci_half_width"] = pooledHalfWidth(j.counts, j.rule)
		data["analytic"] = j.analytic
	}
	s.broadcastLocked(j, event{name: "progress", data: data})
}

// pooledHalfWidth is the running confidence-interval half-width over a
// job's live tally, at the stop rule's confidence level.
func pooledHalfWidth(c avf.Counts, r *plan.Rule) float64 {
	n := c.Total()
	if n == 0 {
		return 1
	}
	conf := r.Confidence
	if conf == 0 {
		conf = 0.99
	}
	lo, hi := plan.Wilson(c.Failures(), n, conf)
	return (hi - lo) / 2
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
				j.errMsg = fmt.Sprintf("cancelled by request; marker: %v", markErr)
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
		if !s.st.Exists(id) {
			return "", &httpError{code: 404, msg: fmt.Sprintf("unknown campaign %s", id)}
		}
		if err := s.st.MarkCancelled(id); err != nil {
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
		s.metrics.queued.Add(-1)
		s.metrics.cancelled.Add(1)
		s.broadcastLocked(j, event{name: "state", data: s.statusLocked(j)})
		close(j.finished)
		s.cond.Broadcast() // a Drain waiter watches for quiescence
		s.mu.Unlock()
		return StateCancelled, nil
	case StateRunning:
		j.userAbort = true
		cancel := j.cancel
		fin := j.finished
		s.mu.Unlock()
		if co := s.opts.Coordinator; co != nil {
			// Close the campaign to claims and journal batches NOW, not
			// when the runner observes its context: a worker racing the
			// DELETE must get a typed 409, never resurrect the campaign.
			co.Revoke(id)
		}
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
