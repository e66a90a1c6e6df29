// Benchmarks regenerating the paper's evaluation (one benchmark per table
// and figure) plus the DESIGN.md §6 ablations. Workload sizes are the
// paper's divided by benchScale so `go test -bench=.` finishes in minutes;
// `go run ./cmd/repro` runs the same experiments at full paper scale and
// EXPERIMENTS.md records those numbers.
package bufferkit_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bufferkit"
	"bufferkit/internal/candidate"
	"bufferkit/internal/core"
	"bufferkit/internal/costopt"
	"bufferkit/internal/delay"
	"bufferkit/internal/experiments"
	"bufferkit/internal/library"
	"bufferkit/internal/lillis"
	"bufferkit/internal/netgen"
	"bufferkit/internal/segment"
	"bufferkit/internal/tree"
)

// benchScale divides the paper's m and n for the benchmark suite.
const benchScale = 4

var drv = experiments.Driver

var (
	netCache   = map[[2]int]*tree.Tree{}
	netCacheMu sync.Mutex
)

// benchNet returns the (cached) scaled industrial net for a paper case.
func benchNet(b *testing.B, m, n int) *tree.Tree {
	b.Helper()
	netCacheMu.Lock()
	defer netCacheMu.Unlock()
	key := [2]int{m, n}
	if t, ok := netCache[key]; ok {
		return t
	}
	t, err := netgen.Industrial(max(2, m/benchScale), max(2, n/benchScale), 1)
	if err != nil {
		b.Fatal(err)
	}
	netCache[key] = t
	return t
}

func runLillis(b *testing.B, t *tree.Tree, lib library.Library) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lillis.Insert(t, lib, drv); err != nil {
			b.Fatal(err)
		}
	}
}

func runNew(b *testing.B, t *tree.Tree, lib library.Library) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Insert(t, lib, core.Options{Driver: drv}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1: the three industrial cases × four
// library sizes × both algorithms. The paper reports the new algorithm up
// to ~11× faster at b = 64.
func BenchmarkTable1(b *testing.B) {
	for _, cs := range experiments.Table1Cases {
		t := benchNet(b, cs.M, cs.N)
		for _, size := range experiments.LibSizes {
			lib := library.Generate(size)
			name := fmt.Sprintf("m%d_n%d/b%d", cs.M, cs.N, size)
			b.Run(name+"/lillis", func(b *testing.B) { runLillis(b, t, lib) })
			b.Run(name+"/new", func(b *testing.B) { runNew(b, t, lib) })
		}
	}
}

// BenchmarkFig3 regenerates Figure 3: runtime versus library size b on the
// 1944-sink net. Normalize each series to its b=8 entry to compare slopes
// with the paper's plot (Lillis ≈ 11×, new ≈ 2× at b = 64).
func BenchmarkFig3(b *testing.B) {
	t := benchNet(b, 1944, 33133)
	for _, size := range []int{8, 16, 24, 32, 40, 48, 56, 64} {
		lib := library.Generate(size)
		b.Run(fmt.Sprintf("b%d/lillis", size), func(b *testing.B) { runLillis(b, t, lib) })
		b.Run(fmt.Sprintf("b%d/new", size), func(b *testing.B) { runNew(b, t, lib) })
	}
}

// BenchmarkFig4 regenerates Figure 4: runtime versus buffer positions n at
// b = 32. Both series grow superlinearly; the new algorithm's growth is
// much slower.
func BenchmarkFig4(b *testing.B) {
	lib := library.Generate(32)
	for _, n := range []int{1943, 4142, 8283, 16566, 33133, 66266} {
		t := benchNet(b, 1944, n)
		b.Run(fmt.Sprintf("n%d/lillis", n), func(b *testing.B) { runLillis(b, t, lib) })
		b.Run(fmt.Sprintf("n%d/new", n), func(b *testing.B) { runNew(b, t, lib) })
	}
}

// BenchmarkAblationAddBuffer isolates the paper's core claim at the data-
// structure level: finding the best candidate for every one of b buffer
// types via b full linear scans (Lillis) versus one Graham scan plus a
// monotone pointer walk (the paper). List lengths span the range the
// industrial nets produce.
func BenchmarkAblationAddBuffer(b *testing.B) {
	lib := library.Generate(64)
	orderR := lib.ByRDesc()
	for _, k := range []int{64, 256, 1024, 4096} {
		pairs := syntheticList(k)
		b.Run(fmt.Sprintf("k%d/linearscan", k), func(b *testing.B) {
			l := candidate.SoAFromPairs(pairs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for ti := range lib {
					if l.BestForR(lib[ti].R) < 0 {
						b.Fatal("empty list")
					}
				}
			}
		})
		b.Run(fmt.Sprintf("k%d/hullwalk", k), func(b *testing.B) {
			l := candidate.SoAFromPairs(pairs)
			h := &candidate.Hull{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Reset()
				l.AppendHullInto(h)
				p := 0
				for _, ti := range orderR {
					p = h.Walk(p, lib[ti].R)
				}
			}
		})
	}
}

// BenchmarkAblationBetaInsert compares the paper's single-pass O(k+b) beta
// merge (Theorem 2) with Lillis-style per-beta O(k) insertion.
func BenchmarkAblationBetaInsert(b *testing.B) {
	for _, k := range []int{256, 4096} {
		pairs := syntheticList(k)
		betas := syntheticBetas(64, pairs[k-1].C)
		b.Run(fmt.Sprintf("k%d/mergebetas", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l := candidate.SoAFromPairs(pairs)
				l.MergeBetas(betas)
			}
		})
		b.Run(fmt.Sprintf("k%d/insertone", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l := candidate.SoAFromPairs(pairs)
				for j := range betas {
					l.InsertOne(betas[j].Q, betas[j].C, 0)
				}
			}
		})
	}
}

// BenchmarkCostSlack measures the cost–slack Pareto extension
// (internal/costopt): one candidate list per reachable cost level, the
// paper's hull walk within each level, on a random 16-sink net with a
// cost-graded library (type i costs i+1).
func BenchmarkCostSlack(b *testing.B) {
	base := netgen.Random(netgen.Opts{Sinks: 16, Seed: 1})
	t, err := segment.Uniform(base, 2)
	if err != nil {
		b.Fatal(err)
	}
	lib := library.Generate(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := costopt.Pareto(t, lib, costopt.Options{Driver: drv}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineReuse is the tentpole's headline measurement: the same
// instance run through the single-shot path (a fresh engine and arena per
// call, as the seed did on every Insert) versus a warm engine that keeps
// its arena and scratch across runs. The warm series must show ~0 allocs/op
// and materially lower ns/op.
func BenchmarkEngineReuse(b *testing.B) {
	t := benchNet(b, 337, 5729)
	for _, size := range []int{8, 32} {
		lib := library.Generate(size)
		opt := core.Options{Driver: drv}
		b.Run(fmt.Sprintf("b%d/coldshot", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Insert(t, lib, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("b%d/warm", size), func(b *testing.B) {
			eng := core.NewEngine()
			if err := eng.Reset(t, lib, opt); err != nil {
				b.Fatal(err)
			}
			res := &core.Result{}
			if err := eng.Run(res); err != nil { // warm the arena slabs
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Run(res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkECOResolve measures the incremental-session win: mode=cold is a
// full warm-engine re-solve of the net, mode=delta a session resolve after
// one sink patch, which recomputes only the leaf-to-root path. The case
// table is shared with repro -bench-json (BENCH_engine.json's eco/ series)
// through experiments.ECOBenchCases; the acceptance target is ≥10x on the
// single-sink delta.
func BenchmarkECOResolve(b *testing.B) {
	for _, ec := range experiments.ECOBenchCases() {
		sink := ec.Tree.Sinks()[0]
		opt := core.Options{Driver: drv}
		b.Run("regime="+ec.Name+"/mode=cold", func(b *testing.B) {
			eng := core.NewEngine()
			if err := eng.Reset(ec.Tree, ec.Lib, opt); err != nil {
				b.Fatal(err)
			}
			res := &core.Result{}
			if err := eng.Run(res); err != nil { // warm the arena slabs
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Run(res); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("regime="+ec.Name+"/mode=delta", func(b *testing.B) {
			sess, err := core.NewSession(ec.Tree, ec.Lib, opt)
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			ctx := context.Background()
			res := &core.Result{}
			for i := 0; i < 8; i++ { // first resolve is full; warm past it
				if err := sess.PatchSink(sink, 1200+float64(i%7), 8); err != nil {
					b.Fatal(err)
				}
				if err := sess.Resolve(ctx, res); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sess.PatchSink(sink, 1200+float64(i%7), 8); err != nil {
					b.Fatal(err)
				}
				if err := sess.Resolve(ctx, res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunBatch measures Solver.RunBatch throughput scaling over a
// 256-net workload: one warm engine per worker, results identical to
// sequential runs (asserted by the batch tests). The nets/s metric is the
// number the acceptance criterion tracks.
func BenchmarkRunBatch(b *testing.B) {
	nets := experiments.BatchWorkload(256) // shared with repro -bench-json
	lib := library.Generate(16)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			solver, err := bufferkit.NewSolver(
				bufferkit.WithLibrary(lib),
				bufferkit.WithDriver(drv),
				bufferkit.WithWorkers(workers),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer solver.Close()
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := solver.RunBatch(ctx, nets); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(nets)*b.N)/b.Elapsed().Seconds(), "nets/s")
		})
	}
}

// BenchmarkYieldSweep measures the Monte Carlo corner fan-out of
// Solver.SolveYield on warm pooled engines: the per-corner cost should
// track one warm engine run (the sweep's inner loop allocates nothing),
// and the robust case adds the cross-corner placement re-scoring pass.
// The case table is shared with repro -bench-json (BENCH_engine.json)
// through experiments.YieldBenchCases.
func BenchmarkYieldSweep(b *testing.B) {
	t := benchNet(b, 337, 5729)
	lib := library.Generate(16)
	for _, yb := range experiments.YieldBenchCases() {
		b.Run(yb.Name, func(b *testing.B) {
			solver, err := bufferkit.NewSolver(
				bufferkit.WithLibrary(lib),
				bufferkit.WithDriver(drv),
				bufferkit.WithSamples(yb.Samples),
				bufferkit.WithSigma(yb.Sigma),
				bufferkit.WithRobustPlacement(yb.Robust),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer solver.Close()
			ctx := context.Background()
			if _, err := solver.SolveYield(ctx, t); err != nil { // warm the pool
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.SolveYield(ctx, t); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64((1+yb.Samples)*b.N)/b.Elapsed().Seconds(), "corners/s")
		})
	}
}

// BenchmarkChipSolve measures multi-net price-and-resolve allocation over
// a shared site grid: an uncontended instance (the parallel fan-out floor,
// one solve per net) and a center-contended one driving the full pricing
// loop. nets/s counts oracle re-solves across all rounds; the rounds
// metric is the instance's deterministic rounds-to-feasible. The case
// table is shared with repro -bench-json (BENCH_engine.json) through
// experiments.ChipBenchCases.
func BenchmarkChipSolve(b *testing.B) {
	lib := library.Generate(16)
	for _, cb := range experiments.ChipBenchCases(1) {
		b.Run(cb.Name, func(b *testing.B) {
			solver, err := bufferkit.NewSolver(bufferkit.WithLibrary(lib))
			if err != nil {
				b.Fatal(err)
			}
			defer solver.Close()
			ctx := context.Background()
			inst := bufferkit.GenerateChip(cb.Opts)
			warm, err := solver.SolveChip(ctx, inst) // warm the pool, record rounds
			if err != nil {
				b.Fatal(err)
			}
			solves := 0
			for _, r := range warm.Rounds {
				solves += r.Resolved
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.SolveChip(ctx, inst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(solves*b.N)/b.Elapsed().Seconds(), "nets/s")
			b.ReportMetric(float64(len(warm.Rounds)), "rounds")
		})
	}
}

// BenchmarkEvaluate measures the exact Elmore oracle, the substrate all
// verification rests on.
func BenchmarkEvaluate(b *testing.B) {
	t := benchNet(b, 1944, 33133)
	lib := library.Generate(16)
	res, err := core.Insert(t, lib, core.Options{Driver: drv})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := delay.Evaluate(t, lib, res.Placement, drv); err != nil {
			b.Fatal(err)
		}
	}
}

// syntheticList builds a deterministic strictly increasing (Q, C) set with
// a mildly concave profile plus noise, so hulls are nontrivial.
func syntheticList(k int) []candidate.Pair {
	rng := rand.New(rand.NewSource(int64(k)))
	pairs := make([]candidate.Pair, k)
	q, c := 0.0, 0.0
	for i := range pairs {
		q += 0.1 + rng.Float64()*10/float64(1+i/8)
		c += 0.1 + rng.Float64()
		pairs[i] = candidate.Pair{Q: q, C: c}
	}
	return pairs
}

// syntheticBetas spreads nb buffered candidates across the list's full
// capacitance range (cmax), so per-beta insertion depth matches a library
// whose input capacitances interleave with the whole candidate set.
func syntheticBetas(nb int, cmax float64) []candidate.Beta {
	rng := rand.New(rand.NewSource(int64(nb) * 7))
	betas := make([]candidate.Beta, nb)
	q, c := 5.0, 0.5
	for i := range betas {
		betas[i] = candidate.Beta{Q: q, C: c}
		q += 0.2 + rng.Float64()*8
		c += cmax / float64(nb) * (0.5 + rng.Float64())
	}
	return betas
}
