package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"bufferkit"
	"bufferkit/internal/server/cache"
)

// yieldRequest is the POST /v1/yield payload. The embedded solveOptions
// select algorithm / prune / timeout exactly as /v1/solve does; yield
// analysis accepts the core-engine algorithm only ("" or "new").
type yieldRequest struct {
	// Net is the net in the repository's .net text format.
	Net string `json:"net"`
	// Library is the buffer library in the .buf text format.
	Library string `json:"library"`
	// Samples is the number of Monte Carlo corners to draw (0 = none;
	// capped by Config.MaxYieldSamples).
	Samples int `json:"samples,omitempty"`
	// Sigma is the sampler's relative sigma (uniform across library R/K/Cin
	// and wire r/c).
	Sigma float64 `json:"sigma,omitempty"`
	// Seed seeds the sampler (absent = the solver default, 1); results are
	// deterministic per seed, and an explicit 0 is a valid seed distinct
	// from the default.
	Seed *int64 `json:"seed,omitempty"`
	// Target is the slack threshold (ps) a corner must meet to yield.
	Target float64 `json:"target,omitempty"`
	// Robust selects the placement maximizing fixed-placement yield across
	// corners instead of the nominal optimum.
	Robust bool `json:"robust,omitempty"`
	// ProcessCorners additionally evaluates the deterministic named corner
	// set (fast/slow and the cross corners).
	ProcessCorners bool `json:"process_corners,omitempty"`
	solveOptions
}

// yieldResponse is the POST /v1/yield reply.
type yieldResponse struct {
	Net       string  `json:"net,omitempty"`
	Algorithm string  `json:"algorithm"`
	Samples   int     `json:"samples"`
	Target    float64 `json:"target"`
	Robust    bool    `json:"robust"`
	// Yield is the chosen placement's fixed-placement yield; OptimalYield
	// re-optimizes per corner and upper-bounds it.
	Yield        float64 `json:"yield"`
	OptimalYield float64 `json:"optimal_yield"`
	// Slack summarizes the per-corner optimal slack distribution.
	Slack struct {
		Mean float64 `json:"mean"`
		Std  float64 `json:"std"`
		Min  float64 `json:"min"`
		Max  float64 `json:"max"`
		P5   float64 `json:"p5"`
		P50  float64 `json:"p50"`
		P95  float64 `json:"p95"`
	} `json:"slack"`
	// WorstCorner names the corner with the smallest optimal slack.
	WorstCorner string  `json:"worst_corner"`
	WorstSlack  float64 `json:"worst_slack"`
	// Placements summarizes every distinct optimal placement observed.
	Placements []yieldPlacement `json:"placements"`
	// Chosen indexes Placements; Placement/Buffers/Cost describe it.
	Chosen    int               `json:"chosen"`
	Placement map[string]string `json:"placement"`
	Buffers   int               `json:"buffers"`
	Cost      int               `json:"cost"`
	// Cached reports whether the result came from the LRU cache without an
	// engine run.
	Cached bool `json:"cached"`
	// ElapsedMs is the sweep runtime of the (original) solve.
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
}

// yieldPlacement summarizes one distinct optimal placement.
type yieldPlacement struct {
	Count      int     `json:"count"`
	Yield      float64 `json:"yield"`
	WorstSlack float64 `json:"worst_slack"`
	MeanSlack  float64 `json:"mean_slack"`
	Buffers    int     `json:"buffers"`
	Cost       int     `json:"cost"`
}

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
		req.solveOptions.cacheOptions(), req.Samples, req.Sigma, req.seed(),
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
	if err := s.decodeBody(w, r, &req); err != nil {
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

	key := cache.NewKey([]byte(req.Net), []byte(req.Library), req.yieldCacheOptions())
	if hit, ok := cacheGet[yieldResponse](s, key); ok {
		writeJSON(w, http.StatusOK, hit)
		return
	}
	net, lib, err := parsePayload(req.Net, req.Library)
	if err != nil {
		s.writeError(w, err)
		return
	}

	resp, _, err := coalesce(r.Context(), &s.yieldFlights, key, s.timeout(req.solveOptions), s.sfShared,
		func(ctx context.Context) (*yieldResponse, error) {
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
			solver, err := req.newSolver(lib, opts...)
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
func buildYieldResponse(net *bufferkit.Net, lib bufferkit.Library, algo string, res *bufferkit.YieldResult, elapsed time.Duration) *yieldResponse {
	resp := &yieldResponse{
		Net:          net.Name,
		Algorithm:    algo,
		Samples:      len(res.Samples),
		Target:       res.Target,
		Robust:       res.Robust,
		Yield:        res.Yield,
		OptimalYield: res.OptimalYield,
		WorstCorner:  res.Samples[res.WorstSample].Corner.Name,
		WorstSlack:   res.Samples[res.WorstSample].Slack,
		Chosen:       res.Chosen,
		Placement:    placementNames(net.Tree, lib, res.Placement),
		Buffers:      res.Placement.Count(),
		Cost:         res.Placements[res.Chosen].Cost,
		ElapsedMs:    float64(elapsed) / float64(time.Millisecond),
	}
	d := res.Dist
	resp.Slack.Mean, resp.Slack.Std = d.Mean, d.Std
	resp.Slack.Min, resp.Slack.Max = d.Min, d.Max
	resp.Slack.P5, resp.Slack.P50, resp.Slack.P95 = d.P5, d.P50, d.P95
	for _, g := range res.Placements {
		resp.Placements = append(resp.Placements, yieldPlacement{
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
