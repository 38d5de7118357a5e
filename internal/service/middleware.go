package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strings"
	"time"

	"gpufi/internal/obs"
)

// requestIDKey carries the request's X-Request-ID through the request
// context, so the error envelope can echo it from any handler depth.
type requestIDKey struct{}

// requestID returns the id the observability middleware assigned to r.
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// statusWriter records the response code for the request log while
// delegating everything else to the underlying ResponseWriter. It must
// implement http.Flusher: the SSE handler type-asserts for it, and a
// wrapper that hides flushing would silently break event streaming.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// newRequestID generates a random request id for requests that arrive
// without an X-Request-ID header.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// routeClass buckets a request path into a small fixed label set for the
// http-requests counter vec: labels must stay bounded no matter what
// paths clients probe, so campaign ids and junk URLs never mint series.
func routeClass(p string) string {
	switch {
	case strings.HasPrefix(p, "/v1/shards"):
		return "shards"
	case strings.HasPrefix(p, "/v1/campaigns"):
		return "campaigns"
	case p == "/metrics" || p == "/healthz" || p == "/readyz":
		return "ops"
	default:
		return "other"
	}
}

// withObservability is the outermost HTTP middleware: it assigns (or
// propagates) the X-Request-ID, echoes it on the response, joins the
// request to an incoming W3C traceparent (so a worker's span context
// flows into the coordinator's handlers and span sinks), counts the
// request by route class, and emits one structured log line per request,
// so campaign lifecycle events, SSE streams and metrics are correlatable
// across logs and nodes.
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		ctx := context.WithValue(r.Context(), requestIDKey{}, id)
		ctx = obs.ExtractTraceparent(ctx, r.Header)
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		s.metrics.httpRequests.Inc(routeClass(r.URL.Path))
		if tid, _, ok := obs.TraceFromContext(ctx); ok {
			s.opts.Logger.Info("http request",
				"request_id", id, "trace", tid.String(), "method", r.Method,
				"path", r.URL.Path, "status", code, "duration", time.Since(start))
			return
		}
		s.opts.Logger.Info("http request",
			"request_id", id, "method", r.Method, "path", r.URL.Path,
			"status", code, "duration", time.Since(start))
	})
}
