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
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/obs"
	"gpufi/internal/store"
)

// Worker is a stateless shard-execution node: it claims shards from a
// coordinator, runs them with the local campaign engine, and streams
// journal batches back. It reaches the coordinator over HTTP (Base) or,
// inside the coordinator's own process, through its methods (Coordinator):
// that is how a local gpufi-serve node runs every campaign. It keeps no
// durable state — everything it needs rides in the Shard (the spec
// reconstructs the campaign, the seed reconstructs the faults), so a worker
// can be killed at any instant and replaced by any other.
//
// The worker also outlives its coordinator: every request waits out an
// outage — a transport failure or a typed coordinator_recovering answer —
// under jittered exponential backoff until the coordinator answers, idle
// or holding a shard, so only a verdict (fenced, revoked, closed, unknown
// shard, bad batch) ends a shard. The coordinator acknowledges a batch only
// once it is on disk, so an acknowledged record is never sent again: a
// restarted coordinator has it, and a retry carries only what no answer
// covered.
type Worker struct {
	// Base is the coordinator's base URL, e.g. "http://10.0.0.1:8080".
	Base string
	// Coordinator is the coordinator itself, in this process: call invokes
	// its Claim and Ingest directly, with no JSON and no HTTP,
	// and their typed errors come back as they are. An idle worker then
	// also wakes the moment the coordinator plans a generation, rather than
	// at its next poll. Set exactly one of Base and Coordinator.
	Coordinator *Coordinator
	// Name identifies the worker to the coordinator (Coordinator.Claim).
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
	// Logger receives worker logs. Nil discards.
	Logger *slog.Logger

	// AfterBatch, when set, runs after every successful journal POST —
	// a test hook for killing a worker at a precise protocol point.
	AfterBatch func(shardID string, seq int)

	profiles profileCache // unless Coordinator's is in this process
	sess     *session     // the campaign of the last shard run: Run's goroutine only
}

// session is a worker's engine session for one campaign: the campaign's plan,
// derived once, and the fault-free prefix its last shard left parked, which
// the next shard continues when it lies ahead (core.Session). A worker keeps
// one, and ends it when a shard of another campaign arrives, when a batch
// answer says the campaign is done or closed, or when Run returns: it holds at
// most one parked prefix device.
type session struct {
	campaign string
	spec     store.Spec
	*core.Session
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

// The worker's waits: the claim poll when Poll is unset, and the backoff
// curve against an unreachable or recovering coordinator, which starts at
// backoffBase and doubles up to backoffMax.
const (
	defaultPoll = 500 * time.Millisecond
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
)

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return defaultPoll
}

// Run claims and executes shards until ctx is cancelled. A coordinator
// outage is waited out inside each request; a refused claim is logged and
// polled again, and a shard that ends in a verdict is abandoned — the
// lease protocol makes that safe.
func (w *Worker) Run(ctx context.Context) error {
	defer w.endSession()
	log := w.logger()
	for {
		wake := w.planned()
		var sh Shard
		err := w.call(ctx, "/v1/shards/claim", ClaimRequest{Worker: w.Name}, &sh)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case err == nil:
			log.Info("shard claimed", "shard", sh.ID, "experiments", len(sh.Indices))
			if err := w.runShard(ctx, &sh); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				// Abandon the shard: its lease will expire and the coordinator
				// will re-issue it. Determinism + dedup make this safe.
				log.Warn("shard abandoned", "shard", sh.ID, "err", err)
			} else {
				log.Info("shard complete", "shard", sh.ID)
			}
			continue
		case !errors.Is(err, ErrNoWork):
			log.Warn("claim failed", "err", err)
		}
		if !sleepCtx(ctx, jitter(w.poll()), wake) {
			return ctx.Err()
		}
	}
}

// session returns the engine session of sh's campaign: the one the worker
// holds, if sh is of its campaign, or else a new one, the old one ended.
func (w *Worker) session(ctx context.Context, sh *Shard) (*core.Session, error) {
	if s := w.sess; s != nil && s.campaign == sh.Campaign && reflect.DeepEqual(s.spec, sh.Spec) {
		return s.Session, nil
	}
	w.endSession()
	cfg, err := sh.Spec.Config()
	if err != nil {
		return nil, fmt.Errorf("shard %s: bad spec: %w", sh.ID, err)
	}
	profiles := &w.profiles
	if w.Coordinator != nil {
		profiles = &w.Coordinator.profiles
	}
	prof, err := profiles.get(ctx, cfg.App, sh.Spec.Scale, cfg.GPU)
	if err != nil {
		return nil, fmt.Errorf("shard %s: profile: %w", sh.ID, err)
	}
	s, err := core.NewSession(cfg, prof)
	if err != nil {
		return nil, fmt.Errorf("shard %s: engine: %w", sh.ID, err)
	}
	w.sess = &session{campaign: sh.Campaign, spec: sh.Spec, Session: s}
	return s, nil
}

// endSession ends the worker's engine session, if it holds one.
func (w *Worker) endSession() {
	if w.sess != nil {
		w.sess.Close()
		w.sess = nil
	}
}

// heartbeatInterval derives from the lease TTL how long a shard's sender
// stays silent before it posts a batch with whatever is ready, maybe
// nothing, to renew the lease: one third of it, so two such batches can be
// lost before the lease expires, with a floor that keeps sub-millisecond
// TTLs from producing a zero or negative interval.
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

// runShard executes one leased shard: the engine session of its campaign
// runs the shard's indices, and finished experiments stream back in journal
// batches, which also keep the lease alive. The coordinator owns the
// campaign's schedule: it ran the analytic pre-pass, and a shard is a piece
// of one round, which the session runs fixed-N; the next round, if the stop
// rule wants one, is more shards.
func (w *Worker) runShard(ctx context.Context, sh *Shard) error {
	profStart := time.Now()
	sess, err := w.session(ctx, sh)
	if err != nil {
		return err
	}
	// A batch answer that the campaign is done or closed ends the session,
	// once the engine and the sender have stopped.
	var campaignOver atomic.Bool
	defer func() {
		if campaignOver.Load() {
			w.endSession()
		}
	}()

	batchSize := w.BatchSize
	if batchSize <= 0 {
		batchSize = 64
	}
	// out is the shard's record stream to the coordinator. The engine's
	// callbacks and the span sink only append; one sender goroutine POSTs,
	// and it alone talks to the coordinator until the engine has returned.
	out := newOutbox(batchSize, heartbeatInterval(time.Duration(sh.LeaseTTLMS)*time.Millisecond))

	// Tracing: the shard grant carries the campaign's root trace; worker
	// spans join it and ride back to the coordinator as span records in
	// the journal batches (a worker has no store of its own). The shard
	// span announces itself so spans merged before the shard completes (or
	// before the worker dies) always have a persisted parent. Every POST
	// under ctx carries the W3C traceparent header from here on.
	var shardSpan *obs.Span
	if tid, ok := obs.ParseTraceID(sh.Trace); ok {
		if psid, ok2 := obs.ParseSpanID(sh.Span); ok2 {
			tctx := obs.ContextWithRemote(ctx, tid, psid)
			tctx = obs.ContextWithNode(tctx, w.Name)
			tctx = obs.ContextWithSink(tctx, func(rec obs.SpanRecord) {
				out.add(Record{Kind: KindSpan, Span: &rec})
			})
			tctx, shardSpan = obs.StartSpan(tctx, "worker.shard",
				obs.Attr{K: "shard", V: sh.ID},
				obs.Attr{K: "worker", V: w.Name},
				obs.Attr{K: "experiments", V: strconv.Itoa(len(sh.Indices))},
				obs.Attr{K: "epoch", V: strconv.FormatInt(sh.Epoch, 10)})
			shardSpan.Announce()
			defer shardSpan.End() // idempotent; flight-ring fallback on error paths
			ctx = tctx
			obs.EmitSpan(ctx, "worker.profile", profStart)
		}
	}

	path := "/v1/shards/" + url.PathEscape(sh.ID) + "/journal"
	// send posts one batch. At most one is in flight per shard: the sender
	// goroutine calls it while the engine runs, runShard itself once the
	// sender has drained. Its answer alone decides how the shard ends.
	seq := 0
	send := func(recs []Record, final bool) (*BatchResult, error) {
		seq++
		var res BatchResult
		if err := w.call(ctx, path, Batch{
			Campaign: sh.Campaign, Shard: sh.ID, Lease: sh.Lease,
			Seq: seq, Final: final, Records: recs,
		}, &res); err != nil {
			if errors.Is(err, ErrCampaignClosed) {
				campaignOver.Store(true)
			}
			return nil, err
		}
		if res.CampaignDone {
			campaignOver.Store(true)
		}
		if w.AfterBatch != nil {
			w.AfterBatch(sh.ID, seq)
		}
		if res.Duplicates > 0 {
			w.logger().Info("coordinator deduplicated records",
				"shard", sh.ID, "duplicates", res.Duplicates)
		}
		return &res, nil
	}
	senderDone := make(chan struct{})
	finalized := false // a batch of the sender's finished the campaign
	go func() {
		defer close(senderDone)
		out.run(func(recs []Record) error {
			res, err := send(recs, false)
			if err == nil && res.CampaignDone {
				// The campaign is closed: any further POST would be refused.
				finalized = true
				out.close()
			}
			return err
		})
	}()

	// The engine's collector serializes the sink, so the outbox sees
	// experiments in completion order — the same order the library engine
	// hands its sink — each one record with its trace attached.
	_, runErr := sess.Run(ctx, sh.Indices, func(exp core.Experiment) error {
		return out.add(Record{Kind: KindExp, Exp: &exp, Trace: exp.Trace})
	})
	// Drain: the sender stops after the POST it has in flight (which a
	// cancelled ctx aborts).
	drainStart := time.Now()
	out.close()
	<-senderDone
	waited, sendErr := time.Since(drainStart), out.err
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
	if finalized {
		// The coordinator closed the campaign on the sender's last batch: a
		// final one would only be refused as closed.
		return nil
	}
	res, err := send(out.records(), true)
	if err == nil && !res.ShardDone && !res.CampaignDone {
		// Every record of it was acknowledged, so durable: a coordinator fault.
		err = fmt.Errorf("shard %s: incomplete after its final batch", sh.ID)
	}
	return err
}

// outbox is one shard's record stream towards the coordinator, decoupled
// from the engine that fills it: add appends and returns, run POSTs from a
// goroutine of its own. While one POST is in flight records keep
// accumulating, so the next one carries everything up to the last legal
// cut — group commit, with min the batch size that triggers a send, not a
// cap. An acknowledged record is on the coordinator's disk, so the outbox
// lets it go: it holds only what no POST has acknowledged yet. A sender
// that has posted nothing for idle posts whatever lies up to the cut, maybe
// nothing: the batch renews the shard's lease.
type outbox struct {
	min  int           // records that trigger a send
	idle time.Duration // silence that triggers a send

	mu     sync.Mutex
	wake   *sync.Cond // on mu: a send became due, or the outbox closed
	recs   []Record   // not yet acknowledged, in engine order; never nil
	cut    int        // recs[:cut] may be sent: it ends on an experiment record
	closed bool       // the engine is done: run returns after the POST in flight
	err    error      // the sender's first failure, sticky
}

func newOutbox(min int, idle time.Duration) *outbox {
	o := &outbox{min: min, idle: idle, recs: []Record{}}
	o.wake = sync.NewCond(&o.mu)
	return o
}

// add appends one record. A batch may end right after an experiment; spans
// ride along with the next one. It returns the sender's sticky error,
// which is how a failed POST stops the engine: at its next callback.
func (o *outbox) add(r Record) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.recs = append(o.recs, r)
	if r.Kind != KindSpan {
		o.cut = len(o.recs)
		if o.cut >= o.min {
			o.wake.Signal()
		}
	}
	return o.err
}

// run is the sender loop: whenever min records are ready, or idle has
// passed since the last POST came back, it posts everything up to the cut,
// one POST at a time, in order. The first error ends it, and so does close.
func (o *outbox) run(post func([]Record) error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		idle := false
		t := time.AfterFunc(o.idle, func() {
			o.mu.Lock()
			idle = true
			o.mu.Unlock()
			o.wake.Signal()
		})
		for !o.closed && o.cut < o.min && !idle {
			o.wake.Wait()
		}
		t.Stop()
		if o.closed {
			return
		}
		n := o.cut
		recs := o.recs[:n:n]
		o.mu.Unlock()
		err := post(recs)
		o.mu.Lock()
		if err != nil {
			o.err = err
			return
		}
		clear(o.recs[:n])
		o.recs, o.cut = o.recs[n:], o.cut-n
	}
}

// close ends run after the POST in flight.
func (o *outbox) close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	o.wake.Signal()
}

// records returns the records no POST has acknowledged. The span sink may
// still be appending.
func (o *outbox) records() []Record {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.recs[:len(o.recs):len(o.recs)]
}

// errorEnvelope is the API's uniform error shape.
type errorEnvelope struct {
	Error struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		RequestID string `json:"request_id"`
	} `json:"error"`
}

// call is the worker's one request path to the coordinator: body goes to
// path, and the reply is decoded into out. Over HTTP (post) a 204 is
// ErrNoWork and an error envelope comes back as the typed error of its Wire
// row; in process (direct) the coordinator's method answers, so both
// transports drive the worker's control flow with the same typed errors.
// An outage — no answer at all, or coordinator_recovering — is waited out
// under jittered exponential backoff until the coordinator answers, the
// coordinator plans a generation (in process) or ctx ends, when call
// returns the outage's last error. A retry sends the same bytes under the
// same traceparent; the wait's worker.park span names the request by the
// last segment of its path.
func (w *Worker) call(ctx context.Context, path string, body, out any) error {
	try := func() error { return w.direct(ctx, path, body, out) }
	if w.Coordinator == nil {
		var raw []byte
		var err error
		if b, ok := body.(Batch); ok {
			raw, err = EncodeBatch(&b)
		} else {
			raw, err = json.Marshal(body)
		}
		if err != nil {
			return err
		}
		try = func() error { return w.post(ctx, path, raw, out) }
	}

	bo := curve
	var parked time.Time
	for {
		wake := w.planned()
		err := try()
		if ctx.Err() != nil || !isOutage(err) {
			if !parked.IsZero() && ctx.Err() == nil {
				obs.EmitSpan(ctx, "worker.park", parked,
					obs.Attr{K: "where", V: path[strings.LastIndexByte(path, '/')+1:]})
				w.logger().Info("coordinator reachable again; worker resuming", "worker", w.Name, "path", path)
			}
			return err
		}
		if parked.IsZero() {
			parked = time.Now()
			backoffParks.Add(1)
			w.logger().Warn("coordinator unreachable; worker parked", "worker", w.Name, "path", path, "err", err)
		}
		backoffRetries.Add(1)
		if !sleepCtx(ctx, bo.next(), wake) {
			return err
		}
	}
}

// post is call's HTTP transport: one POST of raw to path, its reply decoded
// into out. A 204 is ErrNoWork, an error envelope the typed error of its
// Wire row, and no answer at all errUnreachable.
func (w *Worker) post(ctx context.Context, path string, raw []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	obs.InjectTraceparent(ctx, req.Header)
	resp, err := w.client().Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", errUnreachable, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return ErrNoWork
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		// The connection died mid-response: same outage as never reaching
		// the coordinator.
		return fmt.Errorf("%w: %v", errUnreachable, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var env errorEnvelope
		if json.Unmarshal(data, &env) == nil {
			for _, we := range Wire {
				if we.Code == env.Error.Code {
					return fmt.Errorf("%w: %s (http %d)", we.Err, env.Error.Message, resp.StatusCode)
				}
			}
		}
		return fmt.Errorf("shard: %s: http %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("shard: decode %s reply: %v", path, err)
		}
	}
	return nil
}

// direct is call's in-process transport: the request of path, answered by
// the Coordinator's own method.
func (w *Worker) direct(ctx context.Context, path string, body, out any) error {
	if err := ctx.Err(); err != nil {
		return err // what a cancelled POST would have met
	}
	co := w.Coordinator
	switch b := body.(type) {
	case ClaimRequest:
		sh, err := co.Claim(b.Worker)
		if err == nil {
			*out.(*Shard) = *sh
		}
		return err
	case Batch:
		res, err := co.Ingest(b)
		if err == nil {
			*out.(*BatchResult) = *res
		}
		return err
	}
	return fmt.Errorf("shard: %s: no such request", path)
}

// planned is the wake of an in-process worker: a channel the coordinator
// closes at the next generation it plans. Over HTTP it is nil, which never
// fires, so the poll and the backoff alone pace the worker.
func (w *Worker) planned() <-chan struct{} {
	if w.Coordinator == nil {
		return nil
	}
	return w.Coordinator.planned()
}
