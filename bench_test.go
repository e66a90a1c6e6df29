// Benchmarks regenerating the paper's evaluation (one benchmark per table
// and figure), the cost–slack benchmark of DESIGN.md §6 (its ablations run
// in internal/candidate), and BenchmarkSuite, the engine series behind
// BENCH_engine.json. Workload sizes are the paper's divided
// by benchScale so `go test -bench=.` finishes in minutes; `go run
// ./cmd/repro` runs the same experiments at full paper scale and
// EXPERIMENTS.md records those numbers. Both build their nets through
// experiments.Config.Net.
package bufferkit_test

import (
	"fmt"
	"sync"
	"testing"

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

// benchCfg sizes every benchmark here like `repro -scale 4` with repro's
// default seed, so both entry points time the same nets.
var benchCfg = experiments.Config{Scale: benchScale, Seed: experiments.DefaultSeed}

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
	t, err := benchCfg.Net(m, n)
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

// BenchmarkSuite runs the engine benchmark suite, each series as the
// sub-benchmark named like its BENCH_engine.json entry, on the same
// workloads as `repro -bench-json -scale 4`. One series runs with, e.g.,
// `go test -run xxx -bench 'Suite/eco/regime=bushy/mode=delta' .`. repro
// times at GOGC 400; set GOGC=400 here to match it.
func BenchmarkSuite(b *testing.B) {
	for _, s := range experiments.Suite(benchCfg) {
		b.Run(s.Name, s.Bench)
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
