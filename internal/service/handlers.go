package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"gpufi/internal/avf"
	"gpufi/internal/core"
	"gpufi/internal/obs"
	"gpufi/internal/shard"
	"gpufi/internal/store"
)

// Handler returns the service's HTTP API. All campaign and shard routes
// live under the versioned /v1 prefix:
//
//	POST   /v1/campaigns              submit a campaign (Spec JSON, optional "id")
//	GET    /v1/campaigns              paginated listing (?limit=&cursor=)
//	GET    /v1/campaigns/{id}         status + live counts
//	GET    /v1/campaigns/{id}/events  SSE progress stream
//	GET    /v1/campaigns/{id}/log     the raw JSONL journal
//	GET    /v1/campaigns/{id}/trace   the propagation traces (campaigns run with trace);
//	                                  ?format=jsonl|chrome serves the campaign's
//	                                  distributed-tracing timeline instead
//	DELETE /v1/campaigns/{id}         cancel (queued or running); revokes shard leases
//
// Shard control plane (coordinator mode; 503 otherwise). While a restarted
// coordinator is still rebuilding a campaign's shard table from its control
// WAL, these routes answer a typed 503 coordinator_recovering with a
// Retry-After header instead of 404/204, so parked workers keep waiting:
//
//	POST   /v1/shards/claim           claim a shard lease (204 when none pending)
//	GET    /v1/shards                 shard statuses
//	POST   /v1/shards/{id}/heartbeat  extend a lease (409 lease_fenced after a re-issue)
//	POST   /v1/shards/{id}/journal    merge a journal batch
//
// Unversioned operational endpoints (probes and scrapes are
// infrastructure contracts, not API surface):
//
//	GET    /metrics                   service counters (?format=prom for Prometheus text)
//	GET    /healthz                   liveness (200 while the process serves)
//	GET    /readyz                    readiness (503 while starting/draining)
//
// Every error response, including the 404 for a path no route matches and
// the 405 (with an Allow header) for a known path under a method it does
// not serve, is the uniform envelope
//
//	{"error": {"code": "...", "message": "...", "request_id": "..."}}
//
// where request_id echoes the X-Request-ID the observability middleware
// assigned, so a failing client call is greppable in the server log.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/campaigns/{id}/log", s.handleLog)
	mux.HandleFunc("GET /v1/campaigns/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)

	mux.HandleFunc("POST /v1/shards/claim", s.handleShardClaim)
	mux.HandleFunc("GET /v1/shards", s.handleShardList)
	mux.HandleFunc("POST /v1/shards/{id}/heartbeat", s.handleShardHeartbeat)
	mux.HandleFunc("POST /v1/shards/{id}/journal", s.handleShardJournal)

	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)

	// The catch-all takes every request no method-qualified pattern
	// matches, which hides the mux's own 405: ask the mux which methods the
	// path would have matched, so the route list above stays the only one.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		var allow []string
		for _, m := range []string{http.MethodGet, http.MethodHead, http.MethodPost,
			http.MethodPut, http.MethodPatch, http.MethodDelete} {
			probe := *r
			probe.Method = m
			if _, pattern := mux.Handler(&probe); pattern != "/" {
				allow = append(allow, m)
			}
		}
		if len(allow) > 0 {
			w.Header().Set("Allow", strings.Join(allow, ", "))
			writeErr(w, r, &httpError{code: 405,
				msg: fmt.Sprintf("%s is not allowed on %s", r.Method, r.URL.Path)})
			return
		}
		writeErr(w, r, &httpError{code: 404, msg: fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path)})
	})

	return s.withObservability(mux)
}

// status is the wire form of a job's state.
type status struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	App       string     `json:"app"`
	GPU       string     `json:"gpu"`
	Kernel    string     `json:"kernel"`
	Structure string     `json:"structure"`
	Runs      int        `json:"runs"`
	Seed      int64      `json:"seed"`
	Completed int        `json:"completed"`
	Resumed   bool       `json:"resumed,omitempty"`
	Attempts  int        `json:"attempts,omitempty"`
	Counts    avf.Counts `json:"counts"`
	Error     string     `json:"error,omitempty"`

	// TraceID is the campaign's root distributed-trace ID (32 hex digits),
	// carried on every status response and SSE event — including the
	// terminal "done"/"state" events — so a client can correlate a finished
	// job with GET /v1/campaigns/{id}/trace without having watched it run.
	TraceID string `json:"trace_id,omitempty"`

	// Adaptive campaigns only: the pre-pass's analytically masked count,
	// the running pooled interval half-width over the live tally, and — on
	// terminal states — the planner's stratified report.
	Analytic    int              `json:"analytic,omitempty"`
	CIHalfWidth float64          `json:"ci_half_width,omitempty"`
	Plan        *core.PlanReport `json:"plan,omitempty"`
}

// statusLocked snapshots a job; the caller holds s.mu.
func (s *Server) statusLocked(j *job) status {
	st := status{
		ID: j.id, State: j.state,
		App: j.spec.App, GPU: j.spec.GPU, Kernel: j.spec.Kernel, Structure: j.spec.Structure,
		Runs: j.total, Seed: j.spec.Seed,
		Completed: j.done, Resumed: j.resumed, Attempts: j.attempts,
		Counts: j.counts, Error: j.errMsg,
		Analytic: j.analytic, Plan: j.plan,
	}
	if j.rule != nil {
		st.CIHalfWidth = pooledHalfWidth(j.counts, j.rule)
	}
	if !j.trace.IsZero() {
		st.TraceID = j.trace.String()
	}
	return st
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// errBody is the uniform error envelope every route answers with.
type errBody struct {
	Error errDetail `json:"error"`
}

type errDetail struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id"`
}

// defaultKind maps a status code to the envelope code used when the
// httpError did not carry a more specific one.
func defaultKind(code int) string {
	switch code {
	case http.StatusBadRequest:
		return "invalid_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

// writeErr renders any handler error as the uniform envelope, echoing the
// request id assigned by the observability middleware. An httpError with a
// retryAfter hint additionally emits a Retry-After header (the
// coordinator_recovering 503 carries one so parked workers and load
// balancers know the outage is expected to be short).
func writeErr(w http.ResponseWriter, r *http.Request, err error) {
	code, kind, msg := http.StatusInternalServerError, "", err.Error()
	retryAfter := 0
	var he *httpError
	if errors.As(err, &he) {
		code, kind, msg, retryAfter = he.code, he.kind, he.msg, he.retryAfter
	}
	if kind == "" {
		kind = defaultKind(code)
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, code, errBody{Error: errDetail{
		Code: kind, Message: msg, RequestID: requestID(r),
	}})
}

// shardErr maps the shard package's typed protocol errors to enveloped
// HTTP errors, so workers can branch on the code field.
func shardErr(err error) error {
	switch {
	case errors.Is(err, shard.ErrRecovering):
		return &httpError{code: 503, kind: "coordinator_recovering", msg: err.Error(),
			retryAfter: 1}
	case errors.Is(err, shard.ErrUnknownShard):
		return &httpError{code: 404, kind: "shard_unknown", msg: err.Error()}
	case errors.Is(err, shard.ErrLeaseFenced):
		return &httpError{code: 409, kind: "lease_fenced", msg: err.Error()}
	case errors.Is(err, shard.ErrLeaseRevoked):
		return &httpError{code: 409, kind: "lease_revoked", msg: err.Error()}
	case errors.Is(err, shard.ErrCampaignSatisfied):
		return &httpError{code: 409, kind: "campaign_satisfied", msg: err.Error()}
	case errors.Is(err, shard.ErrCampaignClosed):
		return &httpError{code: 409, kind: "campaign_closed", msg: err.Error()}
	case errors.Is(err, shard.ErrBadBatch):
		return &httpError{code: 400, kind: "invalid_batch", msg: err.Error()}
	default:
		return err
	}
}

// coordinator returns the attached shard coordinator, or an httpError if
// this node does not run one (worker and local nodes answer 503: the
// request is valid, just aimed at the wrong node).
func (s *Server) coordinator() (*shard.Coordinator, error) {
	if co := s.opts.Coordinator; co != nil {
		return co, nil
	}
	return nil, &httpError{code: 503, kind: "not_coordinator",
		msg: "this node is not a shard coordinator"}
}

// submitRequest is the POST body: a Spec plus an optional explicit id.
type submitRequest struct {
	ID string `json:"id"`
	store.Spec
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, r, &httpError{code: 400, msg: fmt.Sprintf("bad campaign spec: %v", err)})
		return
	}
	j, err := s.submit(req.ID, req.Spec)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	s.mu.Lock()
	st := s.statusLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, st)
}

// allStatuses merges on-disk campaigns with this process's jobs into one
// id-keyed map.
func (s *Server) allStatuses() map[string]status {
	out := map[string]status{}
	if ids, err := s.st.List(); err == nil {
		for _, id := range ids {
			if st, err := s.storedStatus(id); err == nil {
				out[id] = st
			}
		}
	}
	s.mu.Lock()
	for id, j := range s.jobs {
		out[id] = s.statusLocked(j)
	}
	s.mu.Unlock()
	return out
}

// listPage is the paginated GET /v1/campaigns response.
type listPage struct {
	Campaigns  []status `json:"campaigns"`
	NextCursor string   `json:"next_cursor,omitempty"`
}

// handleList lists campaigns with cursor pagination: ids are ordered
// lexicographically (ascending — a stable total order over restarts), a
// page holds at most limit entries (default 100, max 1000), and
// next_cursor is the last id of a truncated page; pass it back as
// ?cursor= to resume strictly after it.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit := 100
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			writeErr(w, r, &httpError{code: 400, msg: fmt.Sprintf("bad limit %q: must be a positive integer", q)})
			return
		}
		if n > 1000 {
			n = 1000
		}
		limit = n
	}
	cursor := r.URL.Query().Get("cursor")

	all := s.allStatuses()
	ids := make([]string, 0, len(all))
	for id := range all {
		if cursor == "" || id > cursor {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	page := listPage{Campaigns: []status{}}
	for _, id := range ids {
		if len(page.Campaigns) == limit {
			page.NextCursor = page.Campaigns[limit-1].ID
			break
		}
		page.Campaigns = append(page.Campaigns, all[id])
	}
	writeJSON(w, http.StatusOK, page)
}

// storedStatus builds a status for a campaign only known from the store.
func (s *Server) storedStatus(id string) (status, error) {
	info, err := s.st.Inspect(id)
	if err != nil {
		return status{}, err
	}
	st := status{
		ID: id, App: info.Spec.App, GPU: info.Spec.GPU, Kernel: info.Spec.Kernel,
		Structure: info.Spec.Structure, Runs: info.Spec.Runs, Seed: info.Spec.Seed,
		Completed: info.Completed, Counts: info.Counts, Plan: info.Plan,
	}
	switch {
	case info.Done:
		st.State = StateDone
	case info.Cancelled:
		st.State = StateCancelled
	default:
		st.State = "interrupted" // resumable, but not queued in this process
	}
	return st, nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if ok {
		st := s.statusLocked(j)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
		return
	}
	s.mu.Unlock()
	st, err := s.storedStatus(id)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			writeErr(w, r, &httpError{code: 404, msg: fmt.Sprintf("unknown campaign %s", id)})
			return
		}
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, r, &httpError{code: 500, msg: "streaming unsupported"})
		return
	}
	s.mu.Lock()
	j, known := s.jobs[id]
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	writeEvent := func(name string, data any) {
		raw, err := json.Marshal(data)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, raw)
		flusher.Flush()
	}

	if !known {
		// Only on disk (or unknown): emit one terminal snapshot.
		st, err := s.storedStatus(id)
		if err != nil {
			writeEvent("error", map[string]string{"error": err.Error()})
			return
		}
		writeEvent("state", st)
		return
	}

	ch, snapshot, fin := s.subscribe(j)
	defer s.unsubscribe(j, ch)
	writeEvent("state", snapshot)
	for {
		select {
		case ev := <-ch:
			writeEvent(ev.name, ev.data)
		case <-fin:
			// Drain whatever progress was already queued, then emit the
			// terminal state.
			for {
				select {
				case ev := <-ch:
					writeEvent(ev.name, ev.data)
					continue
				default:
				}
				break
			}
			s.mu.Lock()
			st := s.statusLocked(j)
			s.mu.Unlock()
			writeEvent("done", st)
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	f, err := s.st.OpenLog(id)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			writeErr(w, r, &httpError{code: 404, msg: fmt.Sprintf("no journal for campaign %s", id)})
			return
		}
		writeErr(w, r, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	io.Copy(w, f)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	state, err := s.cancelJob(id)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": state})
}

// handleTrace serves two kinds of trace, split by ?format=:
//
//	(none)  the fault-propagation traces (campaigns run with trace: true)
//	jsonl   the campaign's distributed-tracing timeline, raw span records
//	chrome  the same timeline as Chrome trace-event JSON — load it in
//	        Perfetto / chrome://tracing; one track per node
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch format := r.URL.Query().Get("format"); format {
	case "", "propagation":
		f, err := s.st.OpenTraces(id)
		if err != nil {
			if errors.Is(err, store.ErrNotFound) {
				writeErr(w, r, &httpError{code: 404, msg: fmt.Sprintf("no traces for campaign %s", id)})
				return
			}
			writeErr(w, r, err)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.Copy(w, f)
	case "jsonl":
		f, err := s.st.OpenSpans(id)
		if err != nil {
			if errors.Is(err, store.ErrNotFound) {
				writeErr(w, r, &httpError{code: 404, msg: fmt.Sprintf("no spans for campaign %s", id)})
				return
			}
			writeErr(w, r, err)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.Copy(w, f)
	case "chrome":
		f, err := s.st.OpenSpans(id)
		if err != nil {
			if errors.Is(err, store.ErrNotFound) {
				writeErr(w, r, &httpError{code: 404, msg: fmt.Sprintf("no spans for campaign %s", id)})
				return
			}
			writeErr(w, r, err)
			return
		}
		recs, err := readSpans(f)
		f.Close()
		if err != nil {
			writeErr(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, chromeTrace(recs))
	default:
		writeErr(w, r, &httpError{code: 400,
			msg: fmt.Sprintf("unknown trace format %q (want jsonl or chrome)", format)})
	}
}

// handleShardClaim leases a pending shard to the calling worker. 204 with
// no body when nothing is claimable — the worker polls again.
func (s *Server) handleShardClaim(w http.ResponseWriter, r *http.Request) {
	co, err := s.coordinator()
	if err != nil {
		writeErr(w, r, err)
		return
	}
	var req shard.ClaimRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil && err != io.EOF {
		writeErr(w, r, &httpError{code: 400, msg: fmt.Sprintf("bad claim request: %v", err)})
		return
	}
	sh, err := co.Claim(req.Worker)
	if errors.Is(err, shard.ErrNoWork) {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if err != nil {
		writeErr(w, r, shardErr(err))
		return
	}
	writeJSON(w, http.StatusOK, sh)
}

func (s *Server) handleShardHeartbeat(w http.ResponseWriter, r *http.Request) {
	co, err := s.coordinator()
	if err != nil {
		writeErr(w, r, err)
		return
	}
	var req shard.HeartbeatRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, r, &httpError{code: 400, msg: fmt.Sprintf("bad heartbeat: %v", err)})
		return
	}
	// The handler span is parented to the worker's shard span through the
	// traceparent header the middleware extracted; its sink is the trace
	// registry, so it lands in the campaign's spans.jsonl.
	_, sp := obs.StartSpan(r.Context(), "coordinator.heartbeat",
		obs.Attr{K: "shard", V: r.PathValue("id")})
	res, err := co.Heartbeat(r.PathValue("id"), req.Lease)
	sp.End()
	if err != nil {
		writeErr(w, r, shardErr(err))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleShardJournal merges one worker batch. The body limit is generous:
// a batch carries full experiment records, and traced campaigns attach
// propagation traces.
func (s *Server) handleShardJournal(w http.ResponseWriter, r *http.Request) {
	co, err := s.coordinator()
	if err != nil {
		writeErr(w, r, err)
		return
	}
	var b shard.Batch
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&b); err != nil {
		writeErr(w, r, &httpError{code: 400, kind: "invalid_batch", msg: fmt.Sprintf("bad journal batch: %v", err)})
		return
	}
	if b.Shard == "" {
		b.Shard = r.PathValue("id")
	}
	if b.Shard != r.PathValue("id") {
		writeErr(w, r, &httpError{code: 400, kind: "invalid_batch",
			msg: fmt.Sprintf("batch names shard %s, posted to %s", b.Shard, r.PathValue("id"))})
		return
	}
	_, sp := obs.StartSpan(r.Context(), "coordinator.ingest",
		obs.Attr{K: "shard", V: b.Shard},
		obs.Attr{K: "records", V: strconv.Itoa(len(b.Records))})
	res, err := co.Ingest(b)
	if err == nil {
		sp.SetAttr("accepted", strconv.Itoa(res.Accepted))
		sp.SetAttr("duplicates", strconv.Itoa(res.Duplicates))
	}
	sp.End()
	if err != nil {
		writeErr(w, r, shardErr(err))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleShardList(w http.ResponseWriter, r *http.Request) {
	co, err := s.coordinator()
	if err != nil {
		writeErr(w, r, err)
		return
	}
	sts := co.Statuses()
	if sts == nil {
		sts = []shard.Status{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"shards": sts})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.refreshShardWorkerMetrics()
	if r.URL.Query().Get("format") == "prom" {
		// Prometheus text exposition: the per-server registry followed by
		// the process-wide one (sim/core/store instruments). Family names
		// are disjoint between the two.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.metrics.reg.WriteProm(w)
		obs.Default().WriteProm(w)
		return
	}
	writeJSON(w, http.StatusOK, s.snapshotMetrics())
}

// handleHealthz is the liveness probe: the process is up and its HTTP
// loop answers. It stays 200 through drain — a draining server is alive.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
	})
}

// handleReadyz is the readiness probe: 200 only while the worker pool is
// started and accepting submissions. Draining or closed answers 503, so
// load balancers stop routing new campaigns here during shutdown while
// in-flight SSE streams and status reads keep working.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	started, draining, closed := s.started, s.draining, s.closed
	s.mu.Unlock()
	switch {
	case closed:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "closed"})
	case draining:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !started:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}
