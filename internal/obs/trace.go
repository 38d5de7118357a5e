// Distributed tracing, dependency-free. A trace is a 128-bit ID shared
// by every span of one campaign; spans carry 64-bit IDs and parent
// links, propagate across the coordinator/worker HTTP hops as a W3C
// traceparent header, and are emitted as flat JSONL records on
// completion. There is no background exporter: a completed span is
// dispatched synchronously to (a) the process flight ring, always, and
// (b) exactly one sink — the sink attached to its context if any (the
// worker's batch buffer), otherwise the sink registered for its trace ID
// (the service's per-campaign spans.jsonl writer). Registered sinks make
// the coordinator side work without threading writers through every
// call: a handler span knows only its trace ID, and the ID is the
// routing key.
//
// When a context carries no trace, StartSpan and EmitSpan return no-ops;
// the entire layer costs one context lookup on untraced paths.
package obs

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// TraceID is a 128-bit trace identifier, rendered as 32 hex digits.
type TraceID [16]byte

// SpanID is a 64-bit span identifier, rendered as 16 hex digits.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// NewTraceID draws a random, non-zero trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		rand.Read(t[:])
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		rand.Read(s[:])
	}
	return s
}

// ParseTraceID parses 32 hex digits; ok is false for malformed or
// all-zero input.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return t, !t.IsZero()
}

// ParseSpanID parses 16 hex digits; ok is false for malformed or
// all-zero input.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 16 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return SpanID{}, false
	}
	return id, !id.IsZero()
}

// SpanRecord is the completed-span JSONL/wire form. A record with DurUS
// zero may be a provisional "announce" of a span that is still open (so
// children merged before their parent completes never dangle); a later
// record with the same span ID and a real duration supersedes it.
type SpanRecord struct {
	Trace   string            `json:"trace"`
	Span    string            `json:"span"`
	Parent  string            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	Kind    string            `json:"kind,omitempty"` // "" = span, "event" = point event
	Node    string            `json:"node,omitempty"` // track identity: worker name, "coordinator", "service"
	StartUS int64             `json:"start_us"`       // unix microseconds
	DurUS   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// SpanSink receives completed span records. Sinks must be safe for
// concurrent use; they are called synchronously from End/EmitSpan.
type SpanSink func(SpanRecord)

// Attr is one key/value span attribute.
type Attr struct{ K, V string }

type (
	spanRefKey struct{}
	sinkKey    struct{}
	nodeKey    struct{}
)

// spanRef is the trace linkage a context carries: the trace and the span
// that will parent any child started under it. span may be zero — a
// "root-to-be" context from ContextWithTrace.
type spanRef struct {
	trace TraceID
	span  SpanID
}

// ContextWithTrace returns a context under which the next StartSpan
// creates a root span (no parent) of the given trace.
func ContextWithTrace(ctx context.Context, t TraceID) context.Context {
	if t.IsZero() {
		return ctx
	}
	return context.WithValue(ctx, spanRefKey{}, spanRef{trace: t})
}

// ContextWithRemote returns a context whose current span is a remote
// parent — typically the pair extracted from a traceparent header or
// carried in a shard grant.
func ContextWithRemote(ctx context.Context, t TraceID, parent SpanID) context.Context {
	if t.IsZero() {
		return ctx
	}
	return context.WithValue(ctx, spanRefKey{}, spanRef{trace: t, span: parent})
}

// ContextWithSink attaches an explicit sink: spans completed under this
// context go to it instead of the per-trace registry (the worker's way
// of capturing spans into its batch stream).
func ContextWithSink(ctx context.Context, sink SpanSink) context.Context {
	if sink == nil {
		return ctx
	}
	return context.WithValue(ctx, sinkKey{}, sink)
}

// ContextWithNode stamps every span started under ctx with a track
// identity (worker name, "coordinator", "service").
func ContextWithNode(ctx context.Context, node string) context.Context {
	if node == "" {
		return ctx
	}
	return context.WithValue(ctx, nodeKey{}, node)
}

// TraceFromContext returns the current trace and span IDs, if any.
func TraceFromContext(ctx context.Context) (TraceID, SpanID, bool) {
	ref, ok := ctx.Value(spanRefKey{}).(spanRef)
	if !ok {
		return TraceID{}, SpanID{}, false
	}
	return ref.trace, ref.span, true
}

// TraceEnabled reports whether ctx carries a trace.
func TraceEnabled(ctx context.Context) bool {
	_, _, ok := TraceFromContext(ctx)
	return ok
}

func nodeFrom(ctx context.Context) string {
	n, _ := ctx.Value(nodeKey{}).(string)
	return n
}

func sinkFrom(ctx context.Context) SpanSink {
	s, _ := ctx.Value(sinkKey{}).(SpanSink)
	return s
}

// Span is one in-flight operation. All methods are nil-safe: StartSpan
// on an untraced context returns nil and the caller instruments
// unconditionally.
type Span struct {
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	node   string
	start  time.Time
	sink   SpanSink

	mu    sync.Mutex
	attrs map[string]string
	ended bool
}

// StartSpan starts a child of the context's current span (a root when
// the context carries only a trace). The returned context parents
// further children under the new span. On an untraced context it
// returns (ctx, nil).
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	ref, ok := ctx.Value(spanRefKey{}).(spanRef)
	if !ok {
		return ctx, nil
	}
	sp := &Span{
		trace:  ref.trace,
		id:     newSpanID(),
		parent: ref.span,
		name:   name,
		node:   nodeFrom(ctx),
		start:  time.Now(),
		sink:   sinkFrom(ctx),
	}
	if len(attrs) > 0 {
		sp.attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			sp.attrs[a.K] = a.V
		}
	}
	return context.WithValue(ctx, spanRefKey{}, spanRef{trace: ref.trace, span: sp.id}), sp
}

// TraceID returns the span's trace (zero for nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// ID returns the span's ID (zero for nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// SetAttr sets one attribute. Nil-safe.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[k] = v
	s.mu.Unlock()
}

func (s *Span) record(dur time.Duration) SpanRecord {
	rec := SpanRecord{
		Trace:   s.trace.String(),
		Span:    s.id.String(),
		Name:    s.name,
		Node:    s.node,
		StartUS: s.start.UnixMicro(),
		DurUS:   dur.Microseconds(),
	}
	if !s.parent.IsZero() {
		rec.Parent = s.parent.String()
	}
	s.mu.Lock()
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			rec.Attrs[k] = v
		}
	}
	s.mu.Unlock()
	return rec
}

// Announce dispatches a provisional zero-duration record for a span that
// is still open. Spans that will parent records shipped before they end
// (a worker's shard span, a campaign's root span) announce themselves so
// a crash cannot orphan their already-persisted children. Nil-safe.
func (s *Span) Announce() {
	if s == nil {
		return
	}
	dispatch(s.record(0), s.sink)
}

// End completes the span and dispatches its record. Idempotent and
// nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	done := s.ended
	s.ended = true
	s.mu.Unlock()
	if done {
		return
	}
	dispatch(s.record(time.Since(s.start)), s.sink)
}

// EmitSpan records an already-measured operation as a completed span
// from start to now, parented under the context's current span: the cheap
// form for an operation whose start time the caller already took. No-op on
// an untraced context.
func EmitSpan(ctx context.Context, name string, start time.Time, attrs ...Attr) {
	ref, ok := ctx.Value(spanRefKey{}).(spanRef)
	if !ok {
		return
	}
	rec := SpanRecord{
		Trace:   ref.trace.String(),
		Span:    newSpanID().String(),
		Name:    name,
		Node:    nodeFrom(ctx),
		StartUS: start.UnixMicro(),
		DurUS:   time.Since(start).Microseconds(),
	}
	if !ref.span.IsZero() {
		rec.Parent = ref.span.String()
	}
	if len(attrs) > 0 {
		rec.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			rec.Attrs[a.K] = a.V
		}
	}
	dispatch(rec, sinkFrom(ctx))
}

// EmitInTrace records a completed span with explicit linkage, for
// callers that have a trace but no context carrying it (the
// coordinator's claim path learns the trace only after granting).
func EmitInTrace(t TraceID, parent SpanID, node, name string, start time.Time, attrs ...Attr) {
	if t.IsZero() {
		return
	}
	rec := SpanRecord{
		Trace:   t.String(),
		Span:    newSpanID().String(),
		Name:    name,
		Node:    node,
		StartUS: start.UnixMicro(),
		DurUS:   time.Since(start).Microseconds(),
	}
	if !parent.IsZero() {
		rec.Parent = parent.String()
	}
	if len(attrs) > 0 {
		rec.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			rec.Attrs[a.K] = a.V
		}
	}
	dispatch(rec, nil)
}

// EmitRecord dispatches an externally built record — the coordinator
// forwards worker spans from ingested batches this way, so they reach the
// campaign's registered sink and the flight ring.
func EmitRecord(rec SpanRecord) { dispatch(rec, nil) }

// ReadSpans reads a span log (spans.jsonl) as one record per span ID, in
// the order the IDs first appear, keeping the longest: a long-lived span is
// written twice — a zero-duration announce, then its final record — and a
// worker span re-sent with a batch may land twice. Blank, torn or malformed
// lines and records without an ID are skipped, so a log a crash cut short
// reads up to its last whole record. Every reader of the log goes through
// it; nothing deduplicates on the way in.
func ReadSpans(r io.Reader) ([]SpanRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	at := map[string]int{}
	var out []SpanRecord
	for sc.Scan() {
		var rec SpanRecord
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Span == "" {
			continue
		}
		if i, ok := at[rec.Span]; !ok {
			at[rec.Span] = len(out)
			out = append(out, rec)
		} else if rec.DurUS > out[i].DurUS {
			out[i] = rec
		}
	}
	return out, sc.Err()
}

// Per-trace sink registry. The service registers a campaign's
// spans.jsonl writer under its root trace ID for the lifetime of the
// job; coordinator handler spans and forwarded worker spans route by ID.
var (
	sinkMu     sync.Mutex
	traceSinks = map[string]SpanSink{}
)

// RegisterTraceSink routes records of trace t to sink until
// UnregisterTraceSink. Records whose trace has no sink (and no explicit
// context sink) land only in the flight ring.
func RegisterTraceSink(t TraceID, sink SpanSink) {
	if t.IsZero() || sink == nil {
		return
	}
	sinkMu.Lock()
	traceSinks[t.String()] = sink
	sinkMu.Unlock()
}

// UnregisterTraceSink removes the sink for trace t.
func UnregisterTraceSink(t TraceID) {
	sinkMu.Lock()
	delete(traceSinks, t.String())
	sinkMu.Unlock()
}

func lookupSink(trace string) SpanSink {
	sinkMu.Lock()
	s := traceSinks[trace]
	sinkMu.Unlock()
	return s
}

func dispatch(rec SpanRecord, sink SpanSink) {
	Flight().add(rec)
	if sink != nil {
		sink(rec)
		return
	}
	if s := lookupSink(rec.Trace); s != nil {
		s(rec)
	}
}

// TraceparentHeader is the W3C trace-context header name.
const TraceparentHeader = "traceparent"

// FormatTraceparent renders the version-00 W3C header value
// (00-<trace>-<span>-01, sampled).
func FormatTraceparent(t TraceID, s SpanID) string {
	return "00-" + t.String() + "-" + s.String() + "-01"
}

// ParseTraceparent parses a version-00 traceparent value. Unknown
// versions and malformed or all-zero IDs are rejected.
func ParseTraceparent(v string) (TraceID, SpanID, bool) {
	// 2 + 1 + 32 + 1 + 16 + 1 + 2
	if len(v) != 55 || v[0:3] != "00-" || v[35] != '-' || v[52] != '-' {
		return TraceID{}, SpanID{}, false
	}
	t, ok := ParseTraceID(v[3:35])
	if !ok {
		return TraceID{}, SpanID{}, false
	}
	s, ok := ParseSpanID(v[36:52])
	if !ok {
		return TraceID{}, SpanID{}, false
	}
	return t, s, true
}

// InjectTraceparent writes the context's current trace/span pair into h.
// No-op on an untraced context or a root-to-be (zero span) context.
func InjectTraceparent(ctx context.Context, h http.Header) {
	t, s, ok := TraceFromContext(ctx)
	if !ok || s.IsZero() {
		return
	}
	h.Set(TraceparentHeader, FormatTraceparent(t, s))
}

// ExtractTraceparent returns ctx extended with the remote parent carried
// in h's traceparent header, or ctx unchanged when absent/malformed.
func ExtractTraceparent(ctx context.Context, h http.Header) context.Context {
	t, s, ok := ParseTraceparent(h.Get(TraceparentHeader))
	if !ok {
		return ctx
	}
	return ContextWithRemote(ctx, t, s)
}
