package bufferkit

// The differential test: a seeded corpus of small random nets on
// which every dynamic program must agree exactly with the exponential
// brute-force oracle. This is the strongest correctness net in the
// repository — any systematic pruning bug, polarity mishandling, or
// registry-adapter regression shows up here before anything else.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"bufferkit/internal/bruteforce"
	"bufferkit/internal/core"
	"bufferkit/internal/netgen"
	"bufferkit/internal/testutil"
	"bufferkit/internal/tree"
)

// corpusConfig is one slice of the differential corpus.
type corpusConfig struct {
	name string
	// lib is the buffer library the slice runs under.
	lib Library
	// negProb makes some sinks require inverted polarity.
	negProb float64
	// seeds is how many nets the slice contributes.
	seeds int
	// lillis also cross-checks the Lillis O(b²n²) baseline (requires a
	// non-inverting library and, to stay feasible, negProb = 0).
	lillis bool
}

// TestDifferentialCorpus cross-checks the paper's O(bn²) algorithm — with
// every candidate list validated after every operation — and, where
// applicable, the Lillis baseline, against the brute-force oracle on 300
// seeded random nets spanning plain libraries, inverter libraries, and
// mixed sink polarities. Exact slack agreement with the oracle is required
// everywhere, and every reported placement must reproduce its slack under
// the Elmore oracle.
func TestDifferentialCorpus(t *testing.T) {
	const maxPositions = 6 // (b+1)^positions stays ≤ 4^6 evaluations per net
	configs := []corpusConfig{
		{name: "plain-1type", lib: GenerateLibrary(1), seeds: 60, lillis: true},
		{name: "plain-3types", lib: GenerateLibrary(3), seeds: 80, lillis: true},
		{name: "inverters", lib: GenerateLibraryWithInverters(2), seeds: 80},
		{name: "inverters-mixed-polarity", lib: GenerateLibraryWithInverters(3), negProb: 0.5, seeds: 80},
	}

	total, infeasible, negSinks := 0, 0, 0
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < int64(cfg.seeds); seed++ {
				tr := netgen.RandomSmall(seed, maxPositions, cfg.negProb)
				// Vary the driver with the seed: ideal drivers, resistive
				// drivers, and drivers with intrinsic delay all appear.
				rng := rand.New(rand.NewSource(seed))
				drv := Driver{R: 0.3 * rng.Float64(), K: 20 * rng.Float64()}
				if seed%5 == 0 {
					drv = Driver{}
				}
				total++
				for v := range tr.Verts {
					if tr.Verts[v].Kind == tree.Sink && tr.Verts[v].Pol == Negative {
						negSinks++
						break
					}
				}

				brute, err := bruteforce.Best(tr, cfg.lib, drv)
				if err != nil {
					t.Fatalf("seed %d: bruteforce: %v", seed, err)
				}

				res, err := core.Insert(tr, cfg.lib, core.Options{Driver: drv, CheckInvariants: true})

				if !brute.Feasible {
					infeasible++
					if !errors.Is(err, ErrInfeasible) {
						t.Fatalf("seed %d: oracle says infeasible; core returned %v", seed, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("seed %d: core: %v (oracle slack %.6f)", seed, err, brute.Slack)
				}
				if !testutil.AlmostEqual(res.Slack, brute.Slack) {
					t.Fatalf("seed %d: core slack %.12g != brute-force optimum %.12g (Δ=%g)",
						seed, res.Slack, brute.Slack, res.Slack-brute.Slack)
				}
				testutil.CheckPlacement(t, tr, cfg.lib, res.Placement, drv, res.Slack, "core")

				if cfg.lillis {
					ls, err := NewSolver(WithLibrary(cfg.lib), WithDriver(drv), WithAlgorithm(AlgoLillis))
					if err != nil {
						t.Fatalf("seed %d: lillis solver: %v", seed, err)
					}
					lres, err := ls.Run(context.Background(), tr)
					ls.Close()
					if err != nil {
						t.Fatalf("seed %d: lillis: %v", seed, err)
					}
					if !testutil.AlmostEqual(lres.Slack, brute.Slack) {
						t.Fatalf("seed %d: lillis slack %.12g != brute-force optimum %.12g",
							seed, lres.Slack, brute.Slack)
					}
					testutil.CheckPlacement(t, tr, cfg.lib, lres.Placement, drv, lres.Slack, "lillis")
				}
			}
		})
	}

	// Corpus diversity guards: the suite must actually exercise what it
	// claims to — ≥200 nets, some with negative sinks, and at least one
	// polarity-infeasible instance proving the infeasible path is hit.
	checkCorpusDiversity(t, total, negSinks, infeasible)
}

// TestVariationSigmaZeroMatchesNominal is the sigma=0 property: a yield
// sweep drawing one Monte Carlo sample at sigma 0 evaluates only nominal
// corners, so its slack, placement and buffer cost must agree bit-exactly
// with the plain Solver.Run result, across plain libraries, inverter libraries and mixed sink polarities.
func TestVariationSigmaZeroMatchesNominal(t *testing.T) {
	configs := []corpusConfig{
		{name: "plain-3types", lib: GenerateLibrary(3), seeds: 25},
		{name: "inverters-mixed-polarity", lib: GenerateLibraryWithInverters(3), negProb: 0.5, seeds: 25},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < int64(cfg.seeds); seed++ {
				tr := netgen.RandomSmall(seed, 6, cfg.negProb)
				drv := Driver{R: 0.25, K: 12}
				s, err := NewSolver(WithLibrary(cfg.lib), WithDriver(drv))
				if err != nil {
					t.Fatal(err)
				}
				run, runErr := s.Run(context.Background(), tr)

				ys, err := NewSolver(
					WithLibrary(cfg.lib), WithDriver(drv),
					WithSamples(1), WithSigma(0), WithVariationSeed(seed),
				)
				if err != nil {
					t.Fatal(err)
				}
				yres, yerr := ys.SolveYield(context.Background(), tr)
				s.Close()
				ys.Close()

				if runErr != nil {
					// Infeasibility must agree too: no polarity-feasible
					// solution nominally means none under any corner.
					if !errors.Is(runErr, ErrInfeasible) {
						t.Fatalf("seed %d: Run: %v", seed, runErr)
					}
					if !errors.Is(yerr, ErrInfeasible) {
						t.Fatalf("seed %d: Run infeasible but SolveYield returned %v", seed, yerr)
					}
					continue
				}
				if yerr != nil {
					t.Fatalf("seed %d: SolveYield: %v", seed, yerr)
				}
				if len(yres.Samples) != 2 {
					t.Fatalf("seed %d: got %d samples, want 2 (nominal + one sigma-0 draw)", seed, len(yres.Samples))
				}
				for i, smp := range yres.Samples {
					if smp.Slack != run.Slack {
						t.Fatalf("seed %d: sample %d slack %.17g != Run slack %.17g",
							seed, i, smp.Slack, run.Slack)
					}
				}
				if len(yres.Placements) != 1 {
					t.Fatalf("seed %d: sigma-0 sweep found %d distinct placements, want 1", seed, len(yres.Placements))
				}
				for v := range run.Placement {
					if yres.Placement[v] != run.Placement[v] {
						t.Fatalf("seed %d: placements differ at vertex %d", seed, v)
					}
				}
				if yres.Placements[0].Cost != run.Placement.Cost(cfg.lib) {
					t.Fatalf("seed %d: cost %d != Run cost %d",
						seed, yres.Placements[0].Cost, run.Placement.Cost(cfg.lib))
				}
			}
		})
	}
}

// dominatedAugment prepends to lib one strictly-dominated copy of every
// type — same polarity class, R and K no better, Cin strictly larger — so
// dominance pruning has something real to remove, and the surviving
// originals land at shifted indices, exercising the placement remap.
func dominatedAugment(lib Library) Library {
	out := make(Library, 0, 2*len(lib))
	for _, b := range lib {
		d := b
		d.Name = b.Name + "_dom"
		d.R *= 1.25
		d.K += 1
		d.Cin *= 1.01
		out = append(out, d)
	}
	return append(out, lib...)
}

// TestLibraryReductionDominanceExact is WithLibraryReduction's exactness
// property on the differential corpus: with a library carrying one
// strictly-dominated copy of every type, dominance-only reduction (k < 0)
// must reproduce the full-library solve bit for bit — identical slack,
// identical placement in the original index space — across plain
// libraries, inverter libraries and mixed sink polarities. Infeasibility must agree too.
func TestLibraryReductionDominanceExact(t *testing.T) {
	configs := []corpusConfig{
		{name: "plain-1type", lib: GenerateLibrary(1), seeds: 60},
		{name: "plain-3types", lib: GenerateLibrary(3), seeds: 80},
		{name: "inverters", lib: GenerateLibraryWithInverters(2), seeds: 80},
		{name: "inverters-mixed-polarity", lib: GenerateLibraryWithInverters(3), negProb: 0.5, seeds: 80},
	}
	total := 0
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			aug := dominatedAugment(cfg.lib)
			for seed := int64(0); seed < int64(cfg.seeds); seed++ {
				tr := netgen.RandomSmall(seed, 6, cfg.negProb)
				rng := rand.New(rand.NewSource(seed))
				drv := Driver{R: 0.3 * rng.Float64(), K: 20 * rng.Float64()}
				total++
				full, err := NewSolver(WithLibrary(aug), WithDriver(drv))
				if err != nil {
					t.Fatal(err)
				}
				fres, ferr := full.Run(context.Background(), tr)
				full.Close()

				red, err := NewSolver(WithLibrary(aug), WithDriver(drv),
					WithLibraryReduction(-1))
				if err != nil {
					t.Fatal(err)
				}
				if red.libMap == nil {
					t.Fatal("dominated-augmented library triggered no pruning")
				}
				if len(red.cfg.Library) > len(cfg.lib) {
					t.Fatalf("reduction kept %d of %d types, want ≤ %d",
						len(red.cfg.Library), len(aug), len(cfg.lib))
				}
				rres, rerr := red.Run(context.Background(), tr)
				red.Close()

				if ferr != nil {
					if !errors.Is(ferr, ErrInfeasible) {
						t.Fatalf("seed %d: full: %v", seed, ferr)
					}
					if !errors.Is(rerr, ErrInfeasible) {
						t.Fatalf("seed %d: full infeasible but reduced returned %v", seed, rerr)
					}
					continue
				}
				if rerr != nil {
					t.Fatalf("seed %d: reduced: %v (full slack %.6f)", seed, rerr, fres.Slack)
				}
				if rres.Slack != fres.Slack {
					t.Fatalf("seed %d: reduced slack %.17g != full slack %.17g",
						seed, rres.Slack, fres.Slack)
				}
				for v := range fres.Placement {
					if rres.Placement[v] != fres.Placement[v] {
						t.Fatalf("seed %d: placements differ at vertex %d: %d vs %d",
							seed, v, rres.Placement[v], fres.Placement[v])
					}
				}
			}
		})
	}
	if total < 300 {
		t.Fatalf("reduction corpus has %d nets, want ≥ 300", total)
	}
}

// checkCorpusDiversity asserts the differential corpus exercises what it
// claims to.
func checkCorpusDiversity(t *testing.T, total, negSinks, infeasible int) {
	t.Helper()
	if total < 200 {
		t.Fatalf("corpus has %d nets, want ≥ 200", total)
	}
	if negSinks == 0 {
		t.Fatal("corpus never generated a negative-polarity sink")
	}
	t.Logf("corpus: %d nets, %d with negative sinks, %d infeasible", total, negSinks, infeasible)
}
