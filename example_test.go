package bufferkit_test

import (
	"context"
	"fmt"
	"math"
	"sort"

	"bufferkit"
)

// ExampleSolver_Run shows the canonical workflow: build a net, construct a
// Solver with functional options, run it under a context, and inspect the
// placement.
func ExampleSolver_Run() {
	// A 10 mm two-pin line with 20 candidate buffer positions.
	net := bufferkit.TwoPinNet(10000, 20, 12, 1000, bufferkit.PaperWire())

	solver, err := bufferkit.NewSolver(
		bufferkit.WithLibrary(bufferkit.GenerateLibrary(8)),
		bufferkit.WithDriver(bufferkit.Driver{R: 0.2, K: 15}),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer solver.Close()

	res, err := solver.Run(context.Background(), net)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("algorithm: %s\n", solver.Algorithm())
	fmt.Printf("buffers placed: %d\n", res.Placement.Count())
	fmt.Printf("slack: %.1f ps\n", res.Slack)
	// Output:
	// algorithm: new
	// buffers placed: 2
	// slack: 516.9 ps
}

// ExampleWithAlgorithm selects a registered algorithm by name — here the
// O(b²n²) Lillis baseline — and confirms it finds the same optimum as the
// paper's O(bn²) algorithm.
func ExampleWithAlgorithm() {
	net := bufferkit.TwoPinNet(8000, 16, 10, 900, bufferkit.PaperWire())
	lib := bufferkit.GenerateLibrary(6)
	drv := bufferkit.Driver{R: 0.25, K: 10}

	slacks := map[string]float64{}
	for _, algo := range []string{bufferkit.AlgoNew, bufferkit.AlgoLillis} {
		s, err := bufferkit.NewSolver(
			bufferkit.WithLibrary(lib),
			bufferkit.WithDriver(drv),
			bufferkit.WithAlgorithm(algo),
		)
		if err != nil {
			fmt.Println(err)
			return
		}
		res, err := s.Run(context.Background(), net)
		if err != nil {
			fmt.Println(err)
			return
		}
		slacks[algo] = res.Slack
	}
	fmt.Println("same optimum:", math.Abs(slacks[bufferkit.AlgoNew]-slacks[bufferkit.AlgoLillis]) < 1e-9)
	// Output:
	// same optimum: true
}

// ExampleSolver_SolveYield estimates timing yield under process variation:
// 64 seeded Monte Carlo corners perturb the library and wire parameters,
// and robust selection returns the placement maximizing the fraction of
// corners that still meet timing, rather than the nominal optimum.
func ExampleSolver_SolveYield() {
	net := bufferkit.TwoPinNet(10000, 20, 12, 1000, bufferkit.PaperWire())

	solver, err := bufferkit.NewSolver(
		bufferkit.WithLibrary(bufferkit.GenerateLibrary(8)),
		bufferkit.WithDriver(bufferkit.Driver{R: 0.2, K: 15}),
		bufferkit.WithSamples(64),
		bufferkit.WithSigma(0.1),
		bufferkit.WithVariationSeed(1),
		bufferkit.WithYieldTarget(450),
		bufferkit.WithRobustPlacement(true),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer solver.Close()

	res, err := solver.SolveYield(context.Background(), net)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("samples: %d\n", len(res.Samples))
	fmt.Printf("yield at target: %.3f\n", res.Yield)
	fmt.Printf("median slack: %.1f ps\n", res.Dist.P50)
	fmt.Printf("distinct optima: %d, chosen buffers: %d\n", len(res.Placements), res.Placement.Count())
	// Output:
	// samples: 65
	// yield at target: 0.969
	// median slack: 521.5 ps
	// distinct optima: 5, chosen buffers: 3
}

// ExampleSolver_Stream runs a batch and consumes results as they complete;
// NetResult.Index ties each result back to its net, so completion order
// does not matter.
func ExampleSolver_Stream() {
	nets := []*bufferkit.Tree{
		bufferkit.TwoPinNet(4000, 8, 10, 800, bufferkit.PaperWire()),
		bufferkit.TwoPinNet(8000, 16, 10, 800, bufferkit.PaperWire()),
		bufferkit.TwoPinNet(12000, 24, 10, 800, bufferkit.PaperWire()),
	}
	solver, err := bufferkit.NewSolver(
		bufferkit.WithLibrary(bufferkit.GenerateLibrary(8)),
		bufferkit.WithDriver(bufferkit.Driver{R: 0.2, K: 15}),
		bufferkit.WithWorkers(2),
	)
	if err != nil {
		fmt.Println(err)
		return
	}

	buffers := make([]int, len(nets))
	for res, err := range solver.Stream(context.Background(), nets) {
		if err != nil {
			fmt.Println(err)
			return
		}
		buffers[res.Index] = res.Placement.Count()
	}
	fmt.Println("sorted by length, buffers:", buffers, "monotone:", sort.IntsAreSorted(buffers))
	// Output:
	// sorted by length, buffers: [0 2 3] monotone: true
}
