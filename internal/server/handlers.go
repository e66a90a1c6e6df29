package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"bufferkit"
	"bufferkit/internal/api"
	"bufferkit/internal/netlist"
	"bufferkit/internal/obs"
	"bufferkit/internal/orderbuf"
	"bufferkit/internal/resilience"
	"bufferkit/internal/server/cache"
)

// handleSolve solves one net: cache lookup on the raw payload digests,
// then parse, and run under the request deadline — collapsing onto an
// identical in-flight solve when one exists. The winner of a singleflight
// populates the cache; followers are answered from the shared result with
// no engine run of their own.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.solveReqs.Add(1)
	tr := obs.TraceFromContext(r.Context())
	var req solveRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	key := payloadKey(req.Net, digest(req.Library), cacheOptions(req.SolveOptions))
	tr.Set("digest", digestAttr(key.Net))
	lookup := tr.StartSpan("cache_lookup")
	hit, ok := cacheGet[api.SolveResult](s, key)
	lookup.Set("hit", ok)
	lookup.End()
	if ok {
		tr.Set("cached", true)
		hit.Cached = true
		writeJSON(w, http.StatusOK, hit)
		return
	}
	// Fleet routing: a node that does not own this digest forwards it to
	// its cache home before spending any parse or engine time here. False
	// means solve locally — this node is an owner, the request already
	// hopped, or peers are unreachable and local fallback applies.
	if s.handleSolveForward(w, r, &req, key) {
		return
	}
	net, lib, err := parsePayload(req.Net, req.Library)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Admission happens inside the flight, so N coalesced requests consume
	// one engine slot, not N. The flight's context carries the trace of the
	// caller that created it: that caller records the admission and engine
	// spans; followers see only their own wait.
	resp, shared, err := coalesce(r.Context(), &s.flights, key, s.timeout(req.SolveOptions), s.sfShared,
		func(ctx context.Context) (*api.SolveResult, error) {
			slots, err := s.admit(ctx, 1)
			if err != nil {
				return nil, err
			}
			defer s.release(slots)
			solver, err := newSolver(req.SolveOptions, lib, bufferkit.WithDriver(net.Driver))
			if err != nil {
				return nil, err
			}
			defer solver.Close()
			run := startRun(ctx)
			res, err := solver.Run(ctx, net.Tree)
			elapsed := s.endRun(run, 1, res, true)
			if err != nil {
				return nil, err
			}
			resp := buildResponse(net, lib, solver.Algorithm(), res, elapsed)
			s.cacheStore(key, resp)
			s.replicate(key, resp, tr.Traceparent()) // fleet write-through to the other owners
			return resp, nil
		})
	if err != nil {
		s.writeError(w, s.asCanceled(err))
		return
	}
	enc := tr.StartSpan("encode")
	if shared {
		tr.Set("coalesced", true)
		out := *resp // copy: the shared result is immutable
		out.Coalesced = true
		resp = &out
	}
	writeJSON(w, http.StatusOK, resp)
	enc.End()
}

// handleBatch solves a batch, streaming one NDJSON line per net. Cached
// nets are answered without an engine run; the rest go through
// Solver.Stream on as many workers as the admission controller can spare
// (at least one, so batches never deadlock each other). Admission and
// solver construction happen before the first line, so an overloaded
// server sheds the whole batch with 429 + Retry-After, and a bad option is
// a 400, while that is still expressible; an abort after that is reported
// as a terminal NDJSON error record instead of a silent truncation.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.batchReqs.Add(1)
	var req batchRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Nets) == 0 {
		s.writeError(w, badRequestf("nets", "batch has no nets"))
		return
	}
	if len(req.Nets) > s.cfg.MaxBatchNets {
		s.writeError(w, badRequestf("nets", "batch has %d nets; limit is %d", len(req.Nets), s.cfg.MaxBatchNets))
		return
	}
	s.batchNets.Add(int64(len(req.Nets)))

	lib, err := netlist.ParseLibraryText(textBytes(req.Library))
	if err != nil {
		s.writeError(w, wrapParseError("library", err))
		return
	}
	// Parse every net up front: a malformed payload fails the whole batch
	// with a 400 naming the offending index, before any engine time is
	// spent.
	type job struct {
		key  cache.Key
		net  *bufferkit.Net
		resp *api.SolveResult // non-nil = cache hit
	}
	jobs := make([]job, len(req.Nets))
	options := cacheOptions(req.SolveOptions)
	libSum := digest(req.Library) // once for the batch, not once per net
	// The cache misses form the engine's sub-batch; origIdx maps its
	// indices back to the request's.
	var trees []*bufferkit.Tree
	var drivers []bufferkit.Driver
	var origIdx []int
	for i, text := range req.Nets {
		jobs[i].key = payloadKey(text, libSum, options)
		if hit, ok := cacheGet[api.SolveResult](s, jobs[i].key); ok {
			hit.Cached = true
			jobs[i].resp = hit
			continue
		}
		net, err := netlist.ParseNetText(textBytes(text))
		if err != nil {
			s.writeError(w, badRequestf("nets", "net %d: %v", i, err))
			return
		}
		jobs[i].net = net
		trees = append(trees, net.Tree)
		drivers = append(drivers, net.Driver)
		origIdx = append(origIdx, i)
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.SolveOptions))
	defer cancel()

	// The admitted slots become the solver's worker pool.
	var solver *bufferkit.Solver
	if len(trees) > 0 {
		slots, err := s.admit(ctx, len(trees))
		if err != nil {
			s.writeError(w, s.asCanceled(err))
			return
		}
		defer s.release(slots)
		solver, err = newSolver(req.SolveOptions, lib, bufferkit.WithDrivers(drivers), bufferkit.WithWorkers(slots))
		if err != nil {
			s.writeError(w, err)
			return
		}
	}

	out := &ndjsonWriter[*api.BatchLine]{w: w, cancel: cancel}
	// deliver reorders lines by original index when Ordered is set;
	// otherwise it is out.write itself.
	deliver := out.write
	if req.Ordered {
		buf := orderbuf.New[*api.BatchLine](len(jobs))
		deliver = func(line *api.BatchLine) bool {
			return buf.Add(line.Index, line, out.write)
		}
	}

	// delivered counts lines handed to deliver; the batch is complete
	// exactly when every net produced one (in ordered mode a gap from a
	// canceled net keeps later pending lines unemitted, but then the
	// count is short too, so the truncation line below still fires).
	delivered := 0
	// Cache hits stream immediately (in ordered mode they wait for their
	// turn inside deliver).
	for i := range jobs {
		if jobs[i].resp != nil {
			if !deliver(&api.BatchLine{Index: i, Result: jobs[i].resp}) {
				return
			}
			delivered++
		}
	}
	if solver != nil {
		for res, err := range solver.Stream(ctx, trees) {
			if res.Index < 0 {
				out.write(&api.BatchLine{Index: -1, Error: errorMessage(err)})
				return
			}
			s.recordRun(obs.SpanRef{}, 1, &res)
			i := origIdx[res.Index]
			line := &api.BatchLine{Index: i}
			if err != nil {
				line.Error = errorMessage(err)
			} else {
				line.Result = buildResponse(jobs[i].net, lib, solver.Algorithm(), &res, 0)
				s.cacheStore(jobs[i].key, line.Result)
			}
			if !deliver(line) {
				return
			}
			delivered++
		}
	}
	if delivered < len(jobs) {
		// The stream ended early (deadline or cancellation); flush a
		// terminal error record so the client can tell a truncated batch
		// from a complete one.
		err := ctx.Err()
		if err == nil {
			err = context.Canceled
		}
		out.write(&api.BatchLine{Index: -1, Error: errorMessage(s.asCanceled(err))})
	}
}

// handleAlgorithms lists the registry.
func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"algorithms": bufferkit.AlgorithmInfos()})
}

// handleHealthz is the liveness probe: 200 as long as the process serves.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 503 while draining so load
// balancers divert new traffic, 200 otherwise. bufferkitd flips drain mode
// on SIGTERM before it stops accepting connections.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleMetrics renders the server's expvar map: JSON by default, the
// Prometheus text exposition format when the client asks for text/plain
// (or ?format=prom). Metric names are identical in both — the Prometheus
// mapping is mechanical (see obs.WriteProm).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" ||
		strings.Contains(r.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", obs.PromContentType)
		obs.WriteProm(w, s.metrics)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, s.metrics.String())
}

// parsePayload parses the raw net and library texts in place, mapping
// failures to 400s that name the offending request field.
func parsePayload(netText, libText string) (*bufferkit.Net, bufferkit.Library, error) {
	net, err := netlist.ParseNetText(textBytes(netText))
	if err != nil {
		return nil, nil, wrapParseError("net", err)
	}
	lib, err := netlist.ParseLibraryText(textBytes(libText))
	if err != nil {
		return nil, nil, wrapParseError("library", err)
	}
	return net, lib, nil
}

// wrapParseError turns a netlist parse/validation failure into a 400.
// *ValidationError passes through so its vertex/type/field detail reaches
// the client; plain parse errors are pinned to the request field.
func wrapParseError(field string, err error) error {
	var verr *bufferkit.ValidationError
	if errors.As(err, &verr) {
		return verr
	}
	return badRequestf(field, "%v", err)
}

// buildResponse converts a NetResult on a net from a one-off parse into
// the wire shape. Its names are copied out of the parse's name slab (see
// placementNames).
func buildResponse(net *bufferkit.Net, lib bufferkit.Library, algo string, res *bufferkit.NetResult, elapsed time.Duration) *api.SolveResult {
	return buildReply(strings.Clone(net.Name), net.Tree, lib, algo, res, elapsed, true)
}

// buildReply converts a NetResult on tree t, named name, into the wire
// shape; ownNames is placementNames'.
func buildReply(name string, t *bufferkit.Tree, lib bufferkit.Library, algo string, res *bufferkit.NetResult, elapsed time.Duration, ownNames bool) *api.SolveResult {
	resp := &api.SolveResult{
		Net:        name,
		Algorithm:  algo,
		Slack:      res.Slack,
		Buffers:    res.Placement.Count(),
		Cost:       res.Placement.Cost(lib),
		Candidates: res.Candidates,
		Placement:  placementNames(t, lib, res.Placement, ownNames),
		ElapsedMs:  float64(elapsed) / float64(time.Millisecond),
	}
	if res.Stats != (bufferkit.Stats{}) {
		stats := res.Stats
		resp.Stats = &stats
	}
	for _, p := range res.Frontier {
		resp.Frontier = append(resp.Frontier, api.FrontierPoint{Cost: p.Cost, Slack: p.Slack, Buffers: p.Placement.Count()})
	}
	return resp
}

// asCanceled maps a fired context error onto the solver's ErrCanceled so
// the status mapping has one cancellation path.
func (s *Server) asCanceled(err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return fmt.Errorf("%w: %v", bufferkit.ErrCanceled, err)
	}
	return err
}

// errorMessage renders err for an NDJSON line.
func errorMessage(err error) string {
	if err == nil {
		return "unknown error"
	}
	return err.Error()
}

// writeError maps err onto an HTTP status with a JSON error body:
// *ValidationError and malformed payloads → 400, body too large → 413,
// ErrInfeasible → 422, load shedding (*resilience.ShedError) → 429 with a
// Retry-After header, ErrCanceled (request deadline) → 504, anything
// else → 500.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.httpErrors.Add(1)
	resp := api.ErrorBody{Error: err.Error(), Trace: requestTrace(w).TraceID()}
	status := http.StatusInternalServerError
	var herr *httpError
	var verr *bufferkit.ValidationError
	var shed *resilience.ShedError
	switch {
	case errors.As(err, &herr):
		status = herr.status
		resp.Field = herr.field
	case errors.As(err, &verr):
		status = http.StatusBadRequest
		resp.Field = verr.Field
		if verr.Vertex >= 0 {
			v := verr.Vertex
			resp.Vertex = &v
		}
		if verr.Type >= 0 {
			t := verr.Type
			resp.Type = &t
		}
	case errors.As(err, &shed):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(shed.RetryAfter)))
	case errors.Is(err, bufferkit.ErrInfeasible):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, bufferkit.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, &resp)
}

// retryAfterSeconds renders a backoff hint as whole Retry-After seconds,
// at least 1 so clients always wait before retrying.
func retryAfterSeconds(d time.Duration) int {
	return max(int(math.Ceil(d.Seconds())), 1)
}

// writeJSON writes v as the complete response body: compact JSON and a
// newline, encoded once.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
