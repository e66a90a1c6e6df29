// Package bufferkit is a Go implementation of optimal buffer insertion for
// interconnect delay optimization, reproducing Li & Shi, "An O(bn²) Time
// Algorithm for Optimal Buffer Insertion with b Buffer Types" (DATE 2005).
//
// Given a routing tree with sink capacitances and required arrival times,
// per-edge lumped RC, a set of legal buffer positions and a library of b
// buffer types, a Solver places buffers to maximize the slack at the source
// under the Elmore wire delay model and the linear buffer delay model — in
// O(bn²) time, versus the classic Lillis–Cheng–Lin O(b²n²).
//
// Units everywhere: resistance kΩ, capacitance fF, time ps (kΩ·fF = ps),
// distance µm.
//
// Quick start:
//
//	b := bufferkit.NewTreeBuilder()
//	v := b.AddBufferPos(0, 0.38, 590)          // 5 mm of wire, then a leg
//	b.AddSink(v, 0.19, 295, 10, 1000)          // 10 fF sink, RAT 1 ns
//	net := b.MustBuild()
//	solver, err := bufferkit.NewSolver(
//		bufferkit.WithLibrary(bufferkit.GenerateLibrary(16)),
//		bufferkit.WithDriver(bufferkit.Driver{R: 0.2, K: 15}),
//	)
//	res, err := solver.Run(ctx, net)
//	// res.Slack is the optimal slack; res.Placement says which buffer
//	// type (if any) to place at every vertex.
//
// The Solver is the single entry point to every algorithm: the paper's
// O(bn²) (the default), the Lillis O(b²n²) and van Ginneken O(n²)
// baselines, and the cost–slack Pareto extension, all behind the Algorithm
// interface and selected with WithAlgorithm. New algorithms plug in
// through Register without touching the facade. Solver.Run takes a
// context.Context and cancels mid-run; typed errors (ErrInfeasible,
// ErrCanceled, *ValidationError) support errors.Is / errors.As branching.
//
// The package is a facade over focused internal packages: routing trees,
// buffer libraries, exact Elmore evaluation, the candidate-list machinery
// with the paper's convex pruning, the O(bn²) algorithm, the van Ginneken
// and Lillis baselines, wire segmenting, workload generation, netlist I/O,
// a cost–slack Pareto extension, and library clustering. See DESIGN.md for
// the system inventory and EXPERIMENTS.md for the reproduction results.
//
// For many-net workloads (thousands of nets per design, or the same net
// under many process corners), Solver.Stream runs the algorithm
// concurrently on a worker pool of warm engines and yields results as they
// complete; Solver.RunBatch collects them, and NewEngine exposes a
// reusable zero-steady-state-allocation engine directly — see DESIGN.md
// §7–§9.
//
// Solver.SolveYield evaluates a net across process/interconnect variation:
// deterministic sign-off corners (WithCorners) and seeded Monte Carlo
// samples (WithSamples, WithSigma) fan out over the same warm engine pool,
// returning the slack distribution, the yield at a target
// (WithYieldTarget), and — with WithRobustPlacement — the placement
// maximizing yield across corners rather than nominal slack. See
// DESIGN.md §12.
package bufferkit

import (
	"io"

	"bufferkit/internal/core"
	"bufferkit/internal/costopt"
	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/libreduce"
	"bufferkit/internal/netgen"
	"bufferkit/internal/netlist"
	"bufferkit/internal/segment"
	"bufferkit/internal/tree"
)

// Core model types.
type (
	// Tree is a routing tree rooted at the source (vertex 0).
	Tree = tree.Tree
	// TreeBuilder constructs routing trees top-down.
	TreeBuilder = tree.Builder
	// Vertex is one node of a routing tree.
	Vertex = tree.Vertex
	// Polarity is a sink's required signal polarity.
	Polarity = tree.Polarity
	// Buffer is one buffer (or inverter) type.
	Buffer = library.Buffer
	// Library is an ordered set of buffer types.
	Library = library.Library
	// Driver models the net's source driver.
	Driver = delay.Driver
	// Placement maps vertex index to a library type index or NoBuffer.
	Placement = delay.Placement
	// TimingResult is the exact Elmore evaluation of one placement.
	TimingResult = delay.Result
	// Options configure an Engine run (see NewEngine).
	Options = core.Options
	// Result is the outcome of an Engine run.
	Result = core.Result
	// Stats are the O(bn²) engine's instrumentation counters.
	Stats = core.Stats
	// PruneMode selects transient (exact) or destructive (paper-literal)
	// convex pruning.
	PruneMode = core.PruneMode
	// Net bundles a parsed net file: name, tree and driver.
	Net = netlist.Net
	// CostSlackPoint is one point of the cost–slack Pareto frontier.
	CostSlackPoint = costopt.Point
	// NetOpts parameterize RandomNet topologies.
	NetOpts = netgen.Opts
	// Wire is a per-µm wire parameterization for the net generators.
	Wire = netgen.Wire
)

// Re-exported constants.
const (
	// Positive and Negative are sink polarity requirements.
	Positive = tree.Positive
	Negative = tree.Negative
	// NoBuffer marks an unbuffered vertex in a Placement.
	NoBuffer = delay.NoBuffer
	// PruneTransient keeps the full candidate list and is exact everywhere.
	PruneTransient = core.PruneTransient
	// PruneDestructive reproduces the paper's printed pruning code; exact
	// on 2-pin nets, heuristic on multi-pin nets (DESIGN.md §4).
	PruneDestructive = core.PruneDestructive
)

// NewTreeBuilder returns a builder whose vertex 0 is the source.
func NewTreeBuilder() *TreeBuilder { return tree.NewBuilder() }

// Evaluate computes exact Elmore timing of a placement — the oracle every
// Solver result agrees with.
func Evaluate(t *Tree, lib Library, p Placement, drv Driver) (*TimingResult, error) {
	return delay.Evaluate(t, lib, p, drv)
}

// NewPlacement returns an all-unbuffered placement for n vertices.
func NewPlacement(n int) Placement { return delay.NewPlacement(n) }

// GenerateLibrary builds a graded library of the given size spanning the
// paper's TSMC 180 nm parameter ranges.
func GenerateLibrary(size int) Library { return library.Generate(size) }

// GenerateLibraryWithInverters is GenerateLibrary with every second type an
// inverter.
func GenerateLibraryWithInverters(size int) Library { return library.GenerateWithInverters(size) }

// ReduceLibrary clusters lib down to k representative types (Alpert-style
// library selection). Returns the reduced library and the chosen original
// indices.
func ReduceLibrary(lib Library, k int) (Library, []int, error) {
	return libreduce.Reduce(lib, k)
}

// PaperWire returns the paper's wire parameterization (0.076 Ω/µm,
// 0.118 fF/µm).
func PaperWire() Wire { return netgen.PaperWire() }

// TwoPinNet builds a source→sink line of the given length (µm) with evenly
// spaced buffer positions.
func TwoPinNet(length float64, positions int, sinkCap, rat float64, w Wire) *Tree {
	return netgen.TwoPin(length, positions, sinkCap, rat, w)
}

// BalancedNet builds a clock-tree-like balanced topology.
func BalancedNet(fanout, depth int, rootEdge, sinkCap, rat float64, w Wire) *Tree {
	return netgen.Balanced(fanout, depth, rootEdge, sinkCap, rat, w)
}

// RandomNet builds a seeded random routing tree.
func RandomNet(o NetOpts) *Tree { return netgen.Random(o) }

// IndustrialNet builds a synthetic industrial-scale net: `sinks` sinks and
// exactly `positions` buffer positions created by wire segmenting.
func IndustrialNet(sinks, positions int, seed int64) (*Tree, error) {
	return netgen.Industrial(sinks, positions, seed)
}

// SegmentUniform splits every edge of t into k equal segments whose
// junctions are buffer positions.
func SegmentUniform(t *Tree, k int) (*Tree, error) { return segment.Uniform(t, k) }

// SegmentToPositions segments edges proportionally to capacitance until the
// tree has the target number of buffer positions.
func SegmentToPositions(t *Tree, target int) (*Tree, error) {
	return segment.ToPositions(t, target)
}

// ParseNet reads a net file (see the netlist format in cmd/bufopt -help or
// internal/netlist's package documentation).
func ParseNet(r io.Reader) (*Net, error) { return netlist.ParseNet(r) }

// WriteNet writes a net file ParseNet reproduces exactly.
func WriteNet(w io.Writer, n *Net) error { return netlist.WriteNet(w, n) }

// ParseLibrary reads a buffer library file.
func ParseLibrary(r io.Reader) (Library, error) { return netlist.ParseLibrary(r) }

// WriteLibrary writes a library file ParseLibrary reproduces exactly.
func WriteLibrary(w io.Writer, lib Library) error { return netlist.WriteLibrary(w, lib) }
