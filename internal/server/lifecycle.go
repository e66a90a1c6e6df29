package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"expvar"
	"net/http"
	"time"

	"bufferkit"
	"bufferkit/internal/obs"
	"bufferkit/internal/resilience"
	"bufferkit/internal/server/cache"
)

// The request lifecycle shared by the engine-running handlers (solve,
// batch, yield, chip, session PUT). Each helper owns one decision, so the
// endpoints cannot drift apart on it.

// newCounter creates a counter registered under name on m.
func newCounter(m *expvar.Map, name string) *expvar.Int {
	v := new(expvar.Int)
	m.Set(name, v)
	return v
}

// admit takes engine slots for one request: one slot, queueing within the
// admission controller's bounds (a shed is a *resilience.ShedError), plus
// up to want-1 idle extras taken without waiting, never more than
// MaxConcurrent in all. The wait is the trace's admission span; the slots
// count in in_flight_runs until release.
func (s *Server) admit(ctx context.Context, want int) (int, error) {
	sp := obs.TraceFromContext(ctx).StartSpan("admission")
	defer sp.End()
	if err := s.adm.Acquire(ctx); err != nil {
		return 0, err
	}
	slots := 1 + s.adm.TryExtra(min(want, s.cfg.MaxConcurrent)-1)
	s.inFlightRuns.Add(int64(slots))
	return slots, nil
}

// release returns the slots admit took.
func (s *Server) release(slots int) {
	s.inFlightRuns.Add(int64(-slots))
	s.adm.Release(slots)
}

// digest is the SHA-256 of a payload text, the library half of a cache
// key and the net half of payloadKey. It hashes the text's bytes where
// they lie, without a []byte copy.
func digest(text string) [sha256.Size]byte { return sha256.Sum256(textBytes(text)) }

// payloadKey is the cache key of a net text under an already digested
// library: every endpoint that keys raw payloads (solve, batch, yield)
// builds its keys here, and a batch digests its library once for all of
// its nets. It equals cache.NewKey over the same texts.
func payloadKey(net string, lib [sha256.Size]byte, options string) cache.Key {
	return cache.Key{Net: digest(net), Library: lib, Options: options}
}

// cacheGet returns a copy of key's cache entry, a *T. Entries are shared
// and immutable, so every hit gets its own copy, which the caller marks
// Cached.
func cacheGet[T any](s *Server, key cache.Key) (*T, bool) {
	v, ok := s.cache.Get(key)
	if !ok {
		return nil, false
	}
	out := *v.(*T)
	return &out, true
}

// cacheStore makes resp key's cache entry. resp must not change afterwards.
func (s *Server) cacheStore(key cache.Key, resp any) {
	s.cache.Put(key, resp)
	s.cacheStores.Add(1)
}

// coalesce runs fn once for all concurrent callers with the same key. The
// flight runs detached from any one caller under its own timeout, so a
// disconnecting caller never kills the run others wait on. A panic inside
// fn re-panics in every caller, for the recovery middleware's 500. A
// caller that joined another's flight and got its result counts in
// sharedCtr.
func coalesce[V any](ctx context.Context, g *resilience.Group[cache.Key, V], key cache.Key,
	timeout time.Duration, sharedCtr *expvar.Int, fn func(context.Context) (V, error)) (V, bool, error) {
	v, err, shared := g.Do(ctx, key, func(ctx context.Context) (V, error) {
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		return fn(ctx)
	})
	var pe *resilience.PanicError
	if errors.As(err, &pe) {
		panic(pe) // recovery middleware: 500 + panics_total + original stack
	}
	if err == nil && shared {
		sharedCtr.Add(1)
	}
	return v, shared, err
}

// engineRun is an engine run in progress: its span and start time.
type engineRun struct {
	span  obs.SpanRef
	start time.Time
}

// startRun opens the engine_run span on ctx's trace and starts the clock.
func startRun(ctx context.Context) engineRun {
	return engineRun{span: obs.TraceFromContext(ctx).StartSpan("engine_run"), start: time.Now()}
}

// endRun closes run's span and records runs engine runs with res's DP work
// (see recordRun). A single-net run also feeds its duration, failed or
// not, to the admission EWMA and solve_latency_ms, which estimate one
// net's solve time; yield sweeps and chip solves do not. It returns the
// run's duration.
func (s *Server) endRun(run engineRun, runs int, res *bufferkit.NetResult, single bool) time.Duration {
	elapsed := time.Since(run.start)
	if single {
		s.adm.Observe(elapsed)
		s.solveLatency.observe(elapsed)
	}
	s.recordRun(run.span, runs, res)
	run.span.End()
	return elapsed
}

// recordRun counts runs finished engine runs in engine_runs and folds the
// DP work of res — nil for a failed run or one with no single-net result —
// into engine_candidates_total / engine_pruned_total and sp's attributes:
// the per-request view of the O(bn²) algorithm's actual work.
func (s *Server) recordRun(sp obs.SpanRef, runs int, res *bufferkit.NetResult) {
	s.engineRuns.Add(int64(runs))
	if res == nil || res.Stats == (bufferkit.Stats{}) {
		return
	}
	st := &res.Stats
	s.engCandidates.Add(int64(st.BetasGenerated))
	s.engPruned.Add(int64(st.HullPruned))
	sp.Set("candidates", st.BetasGenerated)
	sp.Set("pruned", st.HullPruned)
	sp.Set("kept", st.BetasKept)
	if st.ArenaBytes > 0 {
		sp.Set("arena_bytes", st.ArenaBytes)
	}
}

// ndjsonWriter streams a response as NDJSON records. The 200 header goes
// out with the first record, so until then a handler can still answer
// with a real HTTP status. Every record is flushed as it is written, and a
// failed write (the client went away) cancels the request's work.
type ndjsonWriter[T any] struct {
	w      http.ResponseWriter
	cancel context.CancelFunc
	enc    *json.Encoder // nil until the first record
}

// write emits one record and reports whether the client is still reading.
func (n *ndjsonWriter[T]) write(rec T) bool {
	if n.enc == nil {
		n.w.Header().Set("Content-Type", "application/x-ndjson")
		n.w.WriteHeader(http.StatusOK)
		n.enc = json.NewEncoder(n.w)
	}
	if err := n.enc.Encode(rec); err != nil {
		n.cancel()
		return false
	}
	if f, ok := n.w.(http.Flusher); ok {
		f.Flush()
	}
	return true
}
