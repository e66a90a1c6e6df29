package server

import (
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"bufferkit/internal/api"
	"bufferkit/internal/obs"
	"bufferkit/internal/resilience"
)

// traceparentHeader is the W3C Trace Context request header; traceHeader
// is the response header carrying the request's trace id back to the
// client so any reply — success or error — is correlatable with
// /debug/traces and the request-summary log lines.
const (
	traceparentHeader = "traceparent"
	traceHeader       = "X-Bufferkit-Trace"
)

// traceCarrier is implemented by the instrumented response writer so the
// error writers deep in the handler stack can stamp the trace id into
// error payloads without changing every call signature.
type traceCarrier interface {
	Trace() *obs.Trace
}

// requestTrace extracts the current trace from a response writer (nil
// when observability is disabled or w is a bare writer, as in tests).
func requestTrace(w http.ResponseWriter) *obs.Trace {
	if tc, ok := w.(traceCarrier); ok {
		return tc.Trace()
	}
	return nil
}

// instrument is the outermost middleware: it opens the request's root
// span (joining the caller's trace when a valid traceparent header is
// present — the fleet-forward correlation path), exposes the trace id in
// the X-Bufferkit-Trace response header, recovers panics into 500s, and
// seals the trace with the response status — which emits the one
// request-summary log line. With observability disabled (Config.TraceRing
// < 0) the recorder is nil and every trace operation no-ops.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.rec.StartTrace(r.Method+" "+r.URL.Path, r.Header.Get(traceparentHeader))
		tw := &trackingWriter{ResponseWriter: w, trace: tr}
		if tr != nil {
			w.Header().Set(traceHeader, tr.TraceID())
			r = r.WithContext(obs.ContextWithTrace(r.Context(), tr))
			if origin := r.Header.Get(originHeader); origin != "" && hopCount(r) > 0 {
				tr.Set("origin", origin)
			}
			if tenant := r.Header.Get(tenantHeader); tenant != "" {
				tr.Set("tenant", tenant)
			}
		}
		defer func() {
			rec := recover()
			if rec == nil {
				tr.Finish(tw.status())
				return
			}
			if rec == http.ErrAbortHandler {
				tr.Finish(499) // client went away mid-response
				panic(rec)
			}
			s.panicsTotal.Add(1)
			val, stack := rec, debug.Stack()
			if pe, ok := rec.(*resilience.PanicError); ok {
				val, stack = pe.Value, pe.Stack
			}
			s.rec.Logger().Error("panic serving request",
				"method", r.Method, "path", r.URL.Path, "trace", tr.TraceID(),
				"panic", fmt.Sprint(val), "stack", string(stack))
			if !tw.wroteHeader {
				s.httpErrors.Add(1)
				writeJSON(tw, http.StatusInternalServerError,
					&api.ErrorBody{Error: fmt.Sprintf("internal error: %v", val), Trace: tr.TraceID()})
			}
			tr.Finish(tw.status())
		}()
		next.ServeHTTP(tw, r)
	})
}

// handleDebugTraces serves the recorder's ring of completed traces,
// newest first, optionally filtered by ?min_ms=<float>.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		s.writeError(w, &httpError{status: http.StatusNotFound, msg: "tracing disabled"})
		return
	}
	var minDur time.Duration
	if q := r.URL.Query().Get("min_ms"); q != "" {
		ms, err := strconv.ParseFloat(q, 64)
		if err != nil || ms < 0 {
			s.writeError(w, badRequestf("min_ms", "min_ms must be a non-negative number"))
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	traces := s.rec.Snapshot(minDur)
	writeJSON(w, http.StatusOK, map[string]any{
		"count":  len(traces),
		"traces": traces,
	})
}

// digestAttr renders the first 8 bytes of the net digest — enough to
// correlate a request with cache keys and fleet routing in log lines.
func digestAttr(d [32]byte) string { return hex.EncodeToString(d[:8]) }
