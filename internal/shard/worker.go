package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/obs"
	"gpufi/internal/store"
)

// Worker is a stateless shard-execution node: it claims shards from a
// coordinator over HTTP, runs them with the local campaign engine, and
// streams journal batches back. It keeps no durable state — everything it
// needs rides in the Shard (the spec reconstructs the campaign, the seed
// reconstructs the faults), so a worker can be killed at any instant and
// replaced by any other.
//
// The worker also outlives its coordinator: transport failures and typed
// coordinator_recovering answers park it under jittered exponential
// backoff until the coordinator returns (or the outage budget runs out
// mid-shard, at which point the lease protocol makes abandoning safe),
// and a final batch that leaves the shard incomplete — the signature of a
// restarted coordinator that lost acknowledged merges — triggers a full
// re-send of the shard's records through the idempotent merge path.
type Worker struct {
	// Base is the coordinator's base URL, e.g. "http://10.0.0.1:8080".
	Base string
	// Name identifies the worker in coordinator logs and shard statuses.
	Name string
	// Client is the HTTP client; nil uses a default with sane timeouts.
	Client *http.Client
	// BatchSize is how many journal records trigger a POST. It is a
	// minimum, not a cap: a shard has one POST in flight at a time, and the
	// next carries everything that accumulated behind it. Default 64.
	BatchSize int
	// Poll is the nominal wait after ErrNoWork before claiming again; the
	// actual wait is jittered over [Poll/2, 3*Poll/2) so a worker fleet
	// does not thunder in lockstep against a freshly restarted
	// coordinator. Default 500ms.
	Poll time.Duration
	// BackoffBase is the first delay of the jittered exponential backoff
	// applied when the coordinator is unreachable or recovering. Default
	// 100ms.
	BackoffBase time.Duration
	// BackoffMax caps the backoff growth. Default 5s.
	BackoffMax time.Duration
	// OutageBudget bounds how long a worker that holds a shard stays
	// parked on an unreachable coordinator before abandoning the shard
	// (idle claim polling is not budgeted — a worker waits for a
	// coordinator forever). Default 2m.
	OutageBudget time.Duration
	// Logger receives worker logs. Nil discards.
	Logger *slog.Logger

	// AfterBatch, when set, runs after every successful journal POST —
	// a test hook for killing a worker at a precise protocol point.
	AfterBatch func(shardID string, seq int)

	mu       sync.Mutex
	profiles map[string]*core.Profile // fault-free profile cache per app/gpu point
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) logger() *slog.Logger {
	if w.Logger != nil {
		return w.Logger
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 500 * time.Millisecond
}

func (w *Worker) newBackoff() *backoff {
	b := &backoff{base: w.BackoffBase, max: w.BackoffMax}
	if b.base <= 0 {
		b.base = 100 * time.Millisecond
	}
	if b.max < b.base {
		b.max = 5 * time.Second
		if b.max < b.base {
			b.max = b.base
		}
	}
	return b
}

func (w *Worker) outageBudget() time.Duration {
	if w.OutageBudget > 0 {
		return w.OutageBudget
	}
	return 2 * time.Minute
}

// Run claims and executes shards until ctx is cancelled. Claim errors and
// shard failures are logged and retried — a worker outlives any single
// coordinator hiccup; the lease protocol makes abandoning a shard safe.
// An unreachable (or recovering) coordinator parks the worker under
// exponential backoff with no budget: an idle worker has nothing to lose
// by waiting.
func (w *Worker) Run(ctx context.Context) error {
	log := w.logger()
	bo := w.newBackoff()
	parked := false
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		sh, err := w.claim(ctx)
		switch {
		case err == nil:
			if parked {
				log.Info("coordinator reachable again; worker resuming", "worker", w.Name)
				parked = false
			}
			bo.reset()
			log.Info("shard claimed", "shard", sh.ID, "experiments", len(sh.Indices))
			if err := w.runShard(ctx, sh); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				// Abandon the shard: its lease will expire and the coordinator
				// will re-issue it. Determinism + dedup make this safe.
				log.Warn("shard abandoned", "shard", sh.ID, "err", err)
			} else {
				log.Info("shard complete", "shard", sh.ID)
			}
		case errors.Is(err, ErrNoWork):
			if parked {
				log.Info("coordinator reachable again; worker resuming", "worker", w.Name)
				parked = false
			}
			bo.reset()
			if !sleepCtx(ctx, jitter(w.poll())) {
				return ctx.Err()
			}
		case isOutage(err) && ctx.Err() == nil:
			if !parked {
				parked = true
				backoffParks.Add(1)
				log.Warn("coordinator unreachable; worker parked", "worker", w.Name, "err", err)
			}
			backoffRetries.Add(1)
			if !sleepCtx(ctx, bo.next()) {
				return ctx.Err()
			}
		default:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			log.Warn("claim failed", "err", err)
			if !sleepCtx(ctx, jitter(w.poll())) {
				return ctx.Err()
			}
		}
	}
}

// profile returns the fault-free profile for the shard's app/GPU point,
// cached: every shard of a campaign (and every campaign over the same
// benchmark) shares one golden run per worker process.
func (w *Worker) profile(ctx context.Context, spec store.Spec, cfg *core.CampaignConfig) (*core.Profile, error) {
	key := fmt.Sprintf("%s|%v|%s|%v|%v|%v",
		spec.App, spec.Scale, spec.GPU, spec.ECC, spec.Lenient, spec.L2Queue)
	w.mu.Lock()
	prof := w.profiles[key]
	w.mu.Unlock()
	if prof != nil {
		return prof, nil
	}
	prof, err := core.ProfileApp(ctx, cfg.App, cfg.GPU)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	if w.profiles == nil {
		w.profiles = make(map[string]*core.Profile)
	}
	w.profiles[key] = prof
	w.mu.Unlock()
	return prof, nil
}

// heartbeatInterval derives the heartbeat cadence from the lease TTL: one
// third of it, so two beats can be lost before the lease expires, with a
// floor that keeps sub-millisecond TTLs from producing a zero (ticker
// panic) or negative interval.
func heartbeatInterval(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	iv := ttl / 3
	if iv <= 0 {
		iv = time.Millisecond
	}
	return iv
}

// runShard executes one leased shard: heartbeats keep the lease alive
// while the engine runs the shard's indices (everything else is marked
// Completed), and finished experiments stream back in journal batches.
func (w *Worker) runShard(ctx context.Context, sh *Shard) error {
	cfg, err := sh.Spec.Config()
	if err != nil {
		return fmt.Errorf("shard %s: bad spec: %w", sh.ID, err)
	}
	// The coordinator owns the adaptive stop rule: it ran the analytic
	// pre-pass before planning shards and evaluates the interval on every
	// ingested batch. The worker runs its indices fixed-N and stops when
	// the coordinator says the campaign is satisfied.
	cfg.Plan = nil
	profStart := time.Now()
	prof, err := w.profile(ctx, sh.Spec, cfg)
	if err != nil {
		return fmt.Errorf("shard %s: profile: %w", sh.ID, err)
	}

	// Run ONLY the shard's indices: everything else is "already done"
	// from this engine invocation's point of view.
	mine := make(map[int]bool, len(sh.Indices))
	for _, i := range sh.Indices {
		mine[i] = true
	}
	cfg.Completed = cfg.Completed[:0]
	for i := 0; i < cfg.Runs; i++ {
		if !mine[i] {
			cfg.Completed = append(cfg.Completed, i)
		}
	}

	shardCtx, cancel := context.WithCancel(ctx)
	var satisfied atomic.Bool // campaign converged: stop the shard cleanly
	hbDone := make(chan struct{})
	// Cancel BEFORE waiting: the heartbeat loop only wakes on its ticker
	// or the context, so waiting first would stall shard turnaround by up
	// to a third of the lease TTL.
	defer func() { cancel(); <-hbDone }()

	batchSize := w.BatchSize
	if batchSize <= 0 {
		batchSize = 64
	}
	// out is the shard's record stream to the coordinator. The engine's
	// callbacks and the span sink only append; one sender goroutine POSTs.
	out := newOutbox(batchSize)

	// Tracing: the shard grant carries the campaign's root trace; worker
	// spans join it and ride back to the coordinator as span records in
	// the journal batches (a worker has no store of its own). The shard
	// span announces itself so spans merged before the shard completes (or
	// before the worker dies) always have a persisted parent. Every POST
	// under shardCtx carries the W3C traceparent header from here on,
	// heartbeats included.
	var shardSpan *obs.Span
	if tid, ok := obs.ParseTraceID(sh.Trace); ok {
		if psid, ok2 := obs.ParseSpanID(sh.Span); ok2 {
			tctx := obs.ContextWithRemote(shardCtx, tid, psid)
			tctx = obs.ContextWithNode(tctx, w.Name)
			tctx = obs.ContextWithSink(tctx, func(rec obs.SpanRecord) {
				r := rec
				out.add(Record{Kind: KindSpan, Span: &r}, false)
			})
			tctx, shardSpan = obs.StartSpan(tctx, "worker.shard",
				obs.Attr{K: "shard", V: sh.ID},
				obs.Attr{K: "worker", V: w.Name},
				obs.Attr{K: "experiments", V: strconv.Itoa(len(sh.Indices))},
				obs.Attr{K: "epoch", V: strconv.FormatInt(sh.Epoch, 10)})
			shardSpan.Announce()
			defer shardSpan.End() // idempotent; flight-ring fallback on error paths
			shardCtx = tctx
			obs.EmitSpan(shardCtx, "worker.profile", profStart)
		}
	}

	// Heartbeat loop. A heartbeat rejection means the lease was fenced or
	// the campaign closed — stop burning cycles on the shard. An outage
	// (coordinator unreachable or recovering) parks the shard instead: the
	// engine keeps computing, batches park with it, and the restored lease
	// on the rebuilt coordinator picks everything back up — unless the
	// outage outlives the budget, in which case the shard is abandoned for
	// the lease protocol to re-issue.
	go func() {
		defer close(hbDone)
		t := time.NewTicker(heartbeatInterval(time.Duration(sh.LeaseTTLMS) * time.Millisecond))
		defer t.Stop()
		var outageSince time.Time
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-t.C:
				err := w.heartbeat(shardCtx, sh)
				switch {
				case err == nil:
					if !outageSince.IsZero() {
						obs.EmitSpan(shardCtx, "worker.park", outageSince,
							obs.Attr{K: "where", V: "heartbeat"})
						w.logger().Info("coordinator reachable again; worker resuming",
							"shard", sh.ID)
						outageSince = time.Time{}
					}
				case shardCtx.Err() != nil:
					return
				case errors.Is(err, ErrCampaignSatisfied):
					w.logger().Info("campaign satisfied; stopping shard", "shard", sh.ID)
					satisfied.Store(true)
					cancel()
					return
				case isOutage(err):
					if outageSince.IsZero() {
						outageSince = time.Now()
						backoffParks.Add(1)
						w.logger().Warn("coordinator unreachable; worker parked",
							"shard", sh.ID, "err", err)
					}
					backoffRetries.Add(1)
					if time.Since(outageSince) > w.outageBudget() {
						w.logger().Warn("outage budget exhausted; abandoning shard",
							"shard", sh.ID, "budget", w.outageBudget())
						cancel()
						return
					}
				default:
					w.logger().Warn("heartbeat failed; abandoning shard",
						"shard", sh.ID, "err", err)
					cancel()
					return
				}
			}
		}
	}()

	// send posts one batch, riding out coordinator outages. At most one is
	// in flight per shard: the sender goroutine calls it while the engine
	// runs, runShard itself once the sender has drained.
	seq := 0
	send := func(recs []Record, final bool) (*BatchResult, error) {
		seq++
		var res *BatchResult
		err := w.withOutageRetry(shardCtx, sh.ID, func() error {
			r, err := w.postBatch(shardCtx, sh, Batch{
				Campaign: sh.Campaign, Shard: sh.ID, Lease: sh.Lease,
				Seq: seq, Final: final, Records: recs,
			})
			if err == nil {
				res = r
			}
			return err
		})
		if errors.Is(err, ErrCampaignSatisfied) || (err == nil && res.Satisfied) {
			// The campaign converged, on this batch or before it (a late
			// batch the coordinator finalized without): stop the engine,
			// there is nothing left worth simulating.
			satisfied.Store(true)
			cancel()
		}
		if err != nil {
			return nil, err
		}
		if w.AfterBatch != nil {
			w.AfterBatch(sh.ID, seq)
		}
		if res.Duplicates > 0 {
			w.logger().Info("coordinator deduplicated records",
				"shard", sh.ID, "duplicates", res.Duplicates)
		}
		return res, nil
	}
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		out.run(func(recs []Record) error {
			_, err := send(recs, false)
			if err == nil && satisfied.Load() {
				err = ErrCampaignSatisfied // nothing more to send
			}
			return err
		})
	}()

	// The engine's collector serializes these callbacks, so the outbox
	// sees experiments in completion order — the same order a local store
	// run journals them. The collector hands a traced experiment's
	// propagation trace to TraceSink immediately after Journal, and a cut
	// may only fall after the pair: a trace trailing the campaign's final
	// exp into the next batch would arrive at an already-finalized
	// campaign and be rejected.
	cfg.Journal = func(exp core.Experiment) error {
		e := exp
		return out.add(Record{Kind: KindExp, Exp: &e}, !(sh.Spec.Trace && exp.Trace != nil))
	}
	if sh.Spec.Trace {
		cfg.TraceSink = func(tr core.ExperimentTrace) error {
			t := tr
			return out.add(Record{Kind: KindTrace, Trace: &t}, true)
		}
	}

	_, runErr := core.RunCampaign(shardCtx, cfg, prof)
	// Drain: the sender stops after the POST it has in flight (which a
	// cancelled shardCtx aborts).
	drainStart := time.Now()
	out.close()
	<-senderDone
	waited, sendErr := time.Since(drainStart), out.err
	if satisfied.Load() {
		w.logger().Info("shard stopped; campaign satisfied", "shard", sh.ID)
		return nil
	}
	if runErr != nil {
		return fmt.Errorf("shard %s: engine: %w", sh.ID, runErr)
	}
	if sendErr != nil {
		return sendErr
	}
	// Complete the shard span BEFORE the final flush so its real-duration
	// record rides in the final batch instead of dying with the process.
	// drain_ns against the span's duration says which side bound the shard:
	// the engine waited for the coordinator, or never did.
	shardSpan.SetAttr("drain_ns", strconv.FormatInt(waited.Nanoseconds(), 10))
	shardSpan.End()
	res, err := send(out.records(true), true)
	// A final batch that does not complete the shard means a restarted
	// coordinator lost merges it had acknowledged (they were buffered,
	// never fsynced, when it died). Re-send everything through the
	// idempotent merge path: the duplicates are absorbed, the lost
	// records land, and the journal bytes come out identical because the
	// records themselves are deterministic.
	for attempt := 1; err == nil && !res.ShardDone && !res.CampaignDone; attempt++ {
		if attempt > 3 {
			return fmt.Errorf("shard %s still incomplete after %d full re-sends", sh.ID, attempt-1)
		}
		all := out.records(false)
		backoffResends.Add(1)
		w.logger().Warn("final batch left shard incomplete; re-sending all records",
			"shard", sh.ID, "records", len(all), "attempt", attempt)
		resendStart := time.Now()
		res, err = send(all, true)
		obs.EmitSpan(shardCtx, "worker.resend", resendStart,
			obs.Attr{K: "records", V: strconv.Itoa(len(all))},
			obs.Attr{K: "attempt", V: strconv.Itoa(attempt)})
	}
	if satisfied.Load() {
		return nil // a late batch against a converged campaign is success
	}
	return err
}

// outbox is one shard's record stream towards the coordinator, decoupled
// from the engine that fills it: add appends and returns, run POSTs from a
// goroutine of its own. While one POST is in flight records keep
// accumulating, so the next one carries everything up to the last legal
// cut — group commit, with min the batch size that triggers a send, not a
// cap. all holds every record of the shard in engine order (the post-
// restart re-send needs them anyway), which is also what bounds it.
type outbox struct {
	min int // records that trigger a send

	mu     sync.Mutex
	wake   *sync.Cond // on mu: a send became due, or the outbox closed
	all    []Record
	acked  int   // all[:acked] is acknowledged
	cut    int   // all[:cut] may be sent: a cut never parts an exp from its trace
	closed bool  // the engine is done: run returns after the POST in flight
	err    error // the sender's first failure, sticky
}

func newOutbox(min int) *outbox {
	o := &outbox{min: min}
	o.wake = sync.NewCond(&o.mu)
	return o
}

// add appends one record; cuttable says a batch may end right after it.
// It returns the sender's sticky error, which is how a failed POST stops
// the engine: at its next callback.
func (o *outbox) add(r Record, cuttable bool) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.all = append(o.all, r)
	if cuttable {
		o.cut = len(o.all)
		if o.cut-o.acked >= o.min {
			o.wake.Signal()
		}
	}
	return o.err
}

// run is the sender loop: whenever min records are ready it posts
// everything up to the cut, one POST at a time, in order. The first error
// ends it, and so does close.
func (o *outbox) run(post func([]Record) error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		for !o.closed && o.cut-o.acked < o.min {
			o.wake.Wait()
		}
		if o.closed {
			return
		}
		n := o.cut
		recs := o.all[o.acked:n:n]
		o.mu.Unlock()
		err := post(recs)
		o.mu.Lock()
		if err != nil {
			o.err = err
			return
		}
		o.acked = n
	}
}

// close ends run after the POST in flight.
func (o *outbox) close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	o.wake.Signal()
}

// records returns every record so far, or only those no POST has
// acknowledged. The span sink may still be appending.
func (o *outbox) records(unacked bool) []Record {
	o.mu.Lock()
	defer o.mu.Unlock()
	from := 0
	if unacked {
		from = o.acked
	}
	return o.all[from:len(o.all):len(o.all)]
}

// withOutageRetry runs fn, riding out coordinator outages: transport
// failures and typed coordinator_recovering answers park the caller — a
// shard's sender, while its engine computes on into the outbox — under
// jittered exponential backoff until the coordinator answers again or the
// outage budget runs out.
// Typed protocol errors pass through untouched.
func (w *Worker) withOutageRetry(ctx context.Context, shardID string, fn func() error) error {
	bo := w.newBackoff()
	var outageSince time.Time
	for {
		err := fn()
		if err == nil {
			if !outageSince.IsZero() {
				obs.EmitSpan(ctx, "worker.park", outageSince,
					obs.Attr{K: "where", V: "batch"})
				w.logger().Info("coordinator reachable again; worker resuming", "shard", shardID)
			}
			return nil
		}
		if !isOutage(err) || ctx.Err() != nil {
			return err
		}
		if outageSince.IsZero() {
			outageSince = time.Now()
			backoffParks.Add(1)
			w.logger().Warn("coordinator unreachable; worker parked",
				"shard", shardID, "err", err)
		}
		if time.Since(outageSince) > w.outageBudget() {
			return fmt.Errorf("shard %s: outage budget %v exhausted: %w",
				shardID, w.outageBudget(), err)
		}
		backoffRetries.Add(1)
		if !sleepCtx(ctx, bo.next()) {
			return ctx.Err()
		}
	}
}

// claim asks the coordinator for a shard. ErrNoWork when none is pending.
func (w *Worker) claim(ctx context.Context) (*Shard, error) {
	var sh Shard
	status, err := w.post(ctx, "/v1/shards/claim", ClaimRequest{Worker: w.Name}, &sh)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNoContent {
		return nil, ErrNoWork
	}
	return &sh, nil
}

// heartbeat extends the shard's lease.
func (w *Worker) heartbeat(ctx context.Context, sh *Shard) error {
	path := "/v1/shards/" + url.PathEscape(sh.ID) + "/heartbeat"
	_, err := w.post(ctx, path, HeartbeatRequest{Lease: sh.Lease}, &HeartbeatResult{})
	return err
}

// postBatch sends one journal batch.
func (w *Worker) postBatch(ctx context.Context, sh *Shard, b Batch) (*BatchResult, error) {
	var res BatchResult
	path := "/v1/shards/" + url.PathEscape(sh.ID) + "/journal"
	if _, err := w.post(ctx, path, b, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// errorEnvelope is the API's uniform error shape.
type errorEnvelope struct {
	Error struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		RequestID string `json:"request_id"`
	} `json:"error"`
}

// post sends a JSON body and decodes a JSON reply (unless 204). Non-2xx
// replies decode the error envelope and map its code back to the typed
// protocol errors, so the worker's control flow matches an in-process
// coordinator's. Transport-level failures are wrapped in errUnreachable,
// the outage signal.
func (w *Worker) post(ctx context.Context, path string, body, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+path, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	obs.InjectTraceparent(ctx, req.Header)
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", errUnreachable, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		// The connection died mid-response: same outage as never reaching
		// the coordinator, and just as retryable.
		return resp.StatusCode, fmt.Errorf("%w: %v", errUnreachable, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var env errorEnvelope
		if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
			base := codeErr(env.Error.Code)
			return resp.StatusCode, fmt.Errorf("%w: %s (http %d)", base, env.Error.Message, resp.StatusCode)
		}
		return resp.StatusCode, fmt.Errorf("shard: %s: http %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("shard: decode %s reply: %v", path, err)
		}
	}
	return resp.StatusCode, nil
}

// codeErr maps an envelope error code to the typed protocol error.
func codeErr(code string) error {
	switch code {
	case "lease_revoked":
		return ErrLeaseRevoked
	case "lease_fenced":
		return ErrLeaseFenced
	case "campaign_closed":
		return ErrCampaignClosed
	case "shard_unknown":
		return ErrUnknownShard
	case "invalid_batch":
		return ErrBadBatch
	case "campaign_satisfied":
		return ErrCampaignSatisfied
	case "coordinator_recovering":
		return ErrRecovering
	default:
		return fmt.Errorf("shard: coordinator error %s", code)
	}
}
