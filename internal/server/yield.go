package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"bufferkit"
	"bufferkit/internal/api"
)

// seed resolves the request seed against the solver default, so an absent
// field and an explicit default share one cache entry.
func (req *yieldRequest) seed() int64 {
	if req.Seed != nil {
		return *req.Seed
	}
	return 1
}

// yieldCacheOptions extends the solve option canonicalization with the
// sweep parameters, so distinct sweeps never share a cache entry.
func (req *yieldRequest) yieldCacheOptions() string {
	return fmt.Sprintf("%s yield samples=%d sigma=%g seed=%d target=%g robust=%t pcorners=%t",
		cacheOptions(req.SolveOptions), req.Samples, req.Sigma, req.seed(),
		req.Target, req.Robust, req.ProcessCorners)
}

// handleYield runs Monte Carlo / multi-corner yield analysis on one net:
// cache lookup on the payload digests plus sweep parameters, then parse,
// sweep under the request deadline on as many engine slots as are idle —
// collapsing onto an identical in-flight sweep when one exists
// (singleflight, same contract as /v1/solve). Deadline expiry mid-sweep
// maps to 504 with the completed sample count recorded in the
// yield_aborted_samples counter.
func (s *Server) handleYield(w http.ResponseWriter, r *http.Request) {
	s.yieldReqs.Add(1)
	var req yieldRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if req.Samples < 0 {
		s.writeError(w, badRequestf("samples", "sample count %d must be nonnegative", req.Samples))
		return
	}
	if req.Samples > s.cfg.MaxYieldSamples {
		s.writeError(w, badRequestf("samples", "sample count %d exceeds limit %d", req.Samples, s.cfg.MaxYieldSamples))
		return
	}

	key := payloadKey(req.Net, digest(req.Library), req.yieldCacheOptions())
	if hit, ok := cacheGet[api.YieldResult](s, key); ok {
		hit.Cached = true
		writeJSON(w, http.StatusOK, hit)
		return
	}
	net, lib, err := parsePayload(req.Net, req.Library)
	if err != nil {
		s.writeError(w, err)
		return
	}

	resp, _, err := coalesce(r.Context(), &s.yieldFlights, key, s.timeout(req.SolveOptions), s.sfShared,
		func(ctx context.Context) (*api.YieldResult, error) {
			// A sweep is a batch of corner runs, so it widens over idle
			// slots like /v1/batch, up to one slot per corner.
			corners := 1 + req.Samples
			if req.ProcessCorners {
				corners += len(bufferkit.ProcessCorners()) - 1
			}
			slots, err := s.admit(ctx, corners)
			if err != nil {
				return nil, err
			}
			defer s.release(slots)

			opts := []bufferkit.Option{
				bufferkit.WithDriver(net.Driver),
				bufferkit.WithSamples(req.Samples),
				bufferkit.WithSigma(req.Sigma),
				bufferkit.WithVariationSeed(req.seed()),
				bufferkit.WithYieldTarget(req.Target),
				bufferkit.WithRobustPlacement(req.Robust),
				bufferkit.WithWorkers(slots),
			}
			if req.ProcessCorners {
				opts = append(opts, bufferkit.WithCorners(bufferkit.ProcessCorners()[1:]))
			}
			solver, err := newSolver(req.SolveOptions, lib, opts...)
			if err != nil {
				return nil, err
			}
			defer solver.Close()

			run := startRun(ctx)
			res, err := solver.SolveYield(ctx, net.Tree)
			runs := 0
			if err == nil {
				runs = len(res.Samples)
			}
			elapsed := s.endRun(run, runs, nil, false)
			if err != nil {
				// A deadline abort mid-sweep still carries progress: expose
				// the completed sample count through /metrics before the 504.
				var perr *bufferkit.PartialSweepError
				if errors.As(err, &perr) {
					s.yieldDeadlineAborts.Add(1)
					s.yieldAbortedSamples.Add(int64(perr.Completed))
				}
				return nil, err
			}
			s.yieldSamples.Add(int64(len(res.Samples)))
			resp := buildYieldResponse(net, lib, solver.Algorithm(), res, elapsed)
			s.cacheStore(key, resp)
			return resp, nil
		})
	if err != nil {
		s.writeError(w, s.asCanceled(err))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// buildYieldResponse converts a YieldResult into the wire shape.
func buildYieldResponse(net *bufferkit.Net, lib bufferkit.Library, algo string, res *bufferkit.YieldResult, elapsed time.Duration) *api.YieldResult {
	resp := &api.YieldResult{
		Net:          strings.Clone(net.Name), // not the whole name slab (placementNames)
		Algorithm:    algo,
		Samples:      len(res.Samples),
		Target:       res.Target,
		Robust:       res.Robust,
		Yield:        res.Yield,
		OptimalYield: res.OptimalYield,
		WorstCorner:  res.Samples[res.WorstSample].Corner.Name,
		WorstSlack:   res.Samples[res.WorstSample].Slack,
		Chosen:       res.Chosen,
		Placement:    placementNames(net.Tree, lib, res.Placement, true),
		Buffers:      res.Placement.Count(),
		Cost:         res.Placements[res.Chosen].Cost,
		ElapsedMs:    float64(elapsed) / float64(time.Millisecond),
	}
	d := res.Dist
	resp.Slack.Mean, resp.Slack.Std = d.Mean, d.Std
	resp.Slack.Min, resp.Slack.Max = d.Min, d.Max
	resp.Slack.P5, resp.Slack.P50, resp.Slack.P95 = d.P5, d.P50, d.P95
	for _, g := range res.Placements {
		resp.Placements = append(resp.Placements, api.YieldPlacement{
			Count:      g.Count,
			Yield:      g.Yield,
			WorstSlack: g.WorstSlack,
			MeanSlack:  g.MeanSlack,
			Buffers:    g.Placement.Count(),
			Cost:       g.Cost,
		})
	}
	return resp
}
