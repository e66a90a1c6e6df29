package bufferkit

import (
	"context"

	"bufferkit/internal/core"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/variation"
)

// Variation and yield types, re-exported from internal/variation.
type (
	// Corner is one multiplicative perturbation of the instance's
	// electrical parameters (library R/K/Cin, wire r/c). Construct corners
	// from NominalCorner, ProcessCorners or SampleCorners — the zero value
	// is invalid.
	Corner = variation.Corner
	// YieldResult is the outcome of SolveYield: per-corner samples, the
	// slack distribution, yield at the target, the distinct optimal
	// placements observed, and the chosen placement.
	YieldResult = variation.Result
	// YieldSample is one corner's re-optimized outcome.
	YieldSample = variation.Sample
	// SlackDistribution summarizes the per-corner optimal slacks.
	SlackDistribution = variation.Distribution
	// PlacementGroup is one distinct optimal placement with its
	// fixed-placement yield across all corners.
	PlacementGroup = variation.PlacementGroup
	// PartialSweepError reports a yield sweep aborted mid-run by
	// cancellation, with completed/total sample counts. It wraps
	// ErrCanceled.
	PartialSweepError = variation.PartialError
)

// NominalCorner returns the identity corner (every factor exactly 1).
func NominalCorner() Corner { return variation.Nominal() }

// ProcessCorners returns the deterministic sign-off corner set: nominal,
// fast, slow and the two device/wire cross corners.
func ProcessCorners() []Corner { return variation.ProcessCorners() }

// SampleCorners draws n seeded Monte Carlo corners whose five factors are
// independent Gaussians 1 + sigma·N(0,1) (floored at a small positive
// value). The sequence is deterministic for a fixed seed.
func SampleCorners(n int, sigma float64, seed int64) []Corner {
	return variation.Sampler{Params: variation.Uniform(sigma), Seed: seed}.Corners(n)
}

// yieldConfig collects the SolveYield options on a Solver.
type yieldConfig struct {
	corners []Corner
	samples int
	sigma   float64
	seed    int64
	target  float64
	robust  bool
}

// WithCorners sets explicit corners evaluated by SolveYield, in addition
// to the nominal corner (always evaluated first) and any Monte Carlo
// samples requested with WithSamples.
func WithCorners(corners []Corner) Option {
	return func(s *Solver) error { s.yield.corners = corners; return nil }
}

// WithSamples sets the number of Monte Carlo corners SolveYield draws
// (default 0: only the nominal corner plus any WithCorners set).
func WithSamples(n int) Option {
	return func(s *Solver) error {
		if n < 0 {
			return solvererr.Validation("bufferkit", "samples", "sample count %d must be nonnegative", n)
		}
		s.yield.samples = n
		return nil
	}
}

// WithSigma sets the relative sigma of the Monte Carlo sampler used by
// SolveYield (applied uniformly to library R/K/Cin and wire r/c; default
// 0, which samples the nominal corner).
func WithSigma(sigma float64) Option {
	return func(s *Solver) error {
		if err := variation.Uniform(sigma).Validate(); err != nil {
			return solvererr.Validation("bufferkit", "sigma",
				"sigma %g must be in [0, %g]", sigma, variation.MaxSigma)
		}
		s.yield.sigma = sigma
		return nil
	}
}

// WithVariationSeed seeds the Monte Carlo sampler (default 1). The corner
// sequence — and therefore the whole YieldResult — is deterministic for a
// fixed seed.
func WithVariationSeed(seed int64) Option {
	return func(s *Solver) error { s.yield.seed = seed; return nil }
}

// WithYieldTarget sets the slack threshold (ps) a corner must meet to
// count as yielding (default 0: the corner meets every sink's RAT).
func WithYieldTarget(ps float64) Option {
	return func(s *Solver) error { s.yield.target = ps; return nil }
}

// WithRobustPlacement makes SolveYield return the placement maximizing
// fixed-placement yield across all corners instead of the nominal
// optimum (default false).
func WithRobustPlacement(robust bool) Option {
	return func(s *Solver) error { s.yield.robust = robust; return nil }
}

// requireCore rejects the surfaces that run directly on the core engine
// (yield sweeps, chip allocation, ECO sessions) under any other algorithm.
func (s *Solver) requireCore(surface string) error {
	if s.algoName == AlgoNew {
		return nil
	}
	return solvererr.Validation("bufferkit", "algorithm",
		"%s runs on the core engine; algorithm %q is not supported (use %q)", surface, s.algoName, AlgoNew)
}

// yieldCorners assembles the corner list of one sweep: nominal first, then
// any explicit WithCorners set, then the Monte Carlo samples.
func (s *Solver) yieldCorners() []Corner {
	corners := make([]Corner, 0, 1+len(s.yield.corners)+s.yield.samples)
	corners = append(corners, variation.Nominal())
	corners = append(corners, s.yield.corners...)
	if s.yield.samples > 0 {
		mc := corners[len(corners) : len(corners)+s.yield.samples]
		variation.Sampler{Params: variation.Uniform(s.yield.sigma), Seed: s.yield.seed}.CornersInto(mc)
		corners = corners[:len(corners)+s.yield.samples]
	}
	return corners
}

// SolveYield evaluates the net across process/interconnect variation: it
// re-optimizes the net under the nominal corner, every corner set with
// WithCorners, and WithSamples seeded Monte Carlo corners (WithSigma,
// WithVariationSeed), fanning the corners out over a worker pool of warm
// engines (WithWorkers). The result carries the slack distribution, the
// yield at the target (WithYieldTarget), the distinct optimal placements
// observed, and the chosen placement — the nominal optimum, or the
// fixed-placement yield maximizer under WithRobustPlacement.
//
// A sweep with one sample and sigma 0 reproduces Run's slack, placement
// and cost bit for bit (asserted by the differential suite). Cancellation mid-sweep returns a *PartialSweepError wrapping
// ErrCanceled with completed/total sample counts.
func (s *Solver) SolveYield(ctx context.Context, t *Tree) (*YieldResult, error) {
	if err := s.requireCore("yield analysis"); err != nil {
		return nil, err
	}
	if err := s.checkReducible(t); err != nil {
		return nil, err
	}
	res, err := variation.Sweep(ctx, t, s.cfg.Library, variation.Config{
		Corners:         s.yieldCorners(),
		Driver:          s.cfg.Driver,
		CheckInvariants: s.cfg.CheckInvariants,
		Target:          s.yield.target,
		Robust:          s.yield.robust,
		Workers:         s.workers,
		GetEngine:       func() *core.Engine { return enginePool.Get().(*core.Engine) },
		PutEngine:       func(e *core.Engine) { enginePool.Put(e) },
	})
	if res != nil {
		// Report placements in the original library's index space (see
		// WithLibraryReduction). Result.Placement aliases one of the group
		// placements, so remapping the groups covers it.
		for i := range res.Placements {
			s.remapPlacement(res.Placements[i].Placement)
		}
	}
	return res, err
}
