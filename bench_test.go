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
	"testing"

	"bufferkit/internal/core"
	"bufferkit/internal/costopt"
	"bufferkit/internal/delay"
	"bufferkit/internal/experiments"
	"bufferkit/internal/library"
	"bufferkit/internal/netgen"
	"bufferkit/internal/segment"
)

// benchScale divides the paper's m and n for the benchmark suite.
const benchScale = 4

// benchCfg sizes every benchmark here like `repro -scale 4` with repro's
// default seed, so both entry points time the same nets.
var benchCfg = experiments.Config{Scale: benchScale, Seed: experiments.DefaultSeed}

var drv = experiments.Driver

// BenchmarkTable1 regenerates Table 1: the three industrial cases × four
// library sizes × both algorithms. The paper reports the new algorithm up
// to ~11× faster at b = 64.
func BenchmarkTable1(b *testing.B) { benchCells(b, "table1") }

// BenchmarkFig3 regenerates Figure 3: runtime versus library size b on the
// 1944-sink net. Normalize each series to its b=8 entry to compare slopes
// with the paper's plot (Lillis ≈ 11×, new ≈ 2× at b = 64).
func BenchmarkFig3(b *testing.B) { benchCells(b, "fig3") }

// BenchmarkFig4 regenerates Figure 4: runtime versus buffer positions n at
// b = 32. Both series grow superlinearly; the new algorithm's growth is
// much slower.
func BenchmarkFig4(b *testing.B) { benchCells(b, "fig4") }

// benchCells runs table's cells of the paper evaluation (experiments.Cells,
// the runs repro's tables time), each as the sub-benchmark of its name: one
// cold run per iteration.
func benchCells(b *testing.B, table string) {
	cells, err := experiments.Cells(benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cells {
		if c.Table != table {
			continue
		}
		b.Run(c.Name, func(b *testing.B) {
			t, err := c.Net()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(t); err != nil {
					b.Fatal(err)
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
	t, err := benchCfg.Net(1944, 33133)
	if err != nil {
		b.Fatal(err)
	}
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
