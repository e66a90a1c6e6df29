package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"bufferkit"
	"bufferkit/internal/core"
	"bufferkit/internal/library"
	"bufferkit/internal/netgen"
	"bufferkit/internal/server"
	"bufferkit/internal/tree"
)

// BatchWorkload returns the deterministic mixed batch of n small nets used
// by both the root BenchmarkRunBatch and repro -bench-json, so the two
// trajectories measure the same workload under the same name.
func BatchWorkload(n int) []*tree.Tree {
	nets := make([]*tree.Tree, n)
	for i := range nets {
		nets[i] = netgen.Random(netgen.Opts{Sinks: 4 + i%13, Seed: int64(i) * 31})
	}
	return nets
}

// ECOBenchCase is one workload of the incremental ECO-session benchmark
// series, shared by the root BenchmarkECOResolve and repro -bench-json so
// both trajectories measure the same regimes under the same names. Each
// case is benchmarked twice — mode=cold (a full warm-engine re-solve, the
// pre-session baseline) and mode=delta (a session resolve after one sink
// patch) — so the eco/ trajectory records the incremental speedup
// directly. The trees are deliberately bushy: a single-sink delta
// dirties one leaf-to-root path, a thin slice of a balanced tree, which is
// exactly the regime ECO loops live in (a 2-pin line would dirty
// everything and measure nothing).
type ECOBenchCase struct {
	Name string
	Tree *tree.Tree
	Lib  library.Library
}

// ECOBenchCases returns the canonical ECO-session benchmark regimes: a
// deep ternary clock-tree-like net and a shallow wide one.
func ECOBenchCases() []ECOBenchCase {
	return []ECOBenchCase{
		{"bushy", netgen.Balanced(3, 6, 400, 8, 1200, netgen.PaperWire()), library.Generate(16)},
		{"wide", netgen.Balanced(4, 5, 400, 8, 1200, netgen.PaperWire()), library.Generate(16)},
	}
}

// YieldBenchCase is one workload of the yield-sweep benchmark series,
// shared by the root BenchmarkYieldSweep and repro -bench-json so both
// trajectories measure the same sweeps under the same names.
type YieldBenchCase struct {
	Name    string
	Samples int
	Sigma   float64
	Robust  bool
}

// YieldBenchCases returns the canonical yield-sweep benchmark series: two
// Monte Carlo sizes on the nominal-selection path and one robust-selection
// case that additionally re-scores every distinct placement across all
// corners.
func YieldBenchCases() []YieldBenchCase {
	return []YieldBenchCase{
		{Name: "yield/samples=16", Samples: 16, Sigma: 0.05},
		{Name: "yield/samples=64", Samples: 64, Sigma: 0.05},
		{Name: "yield/samples=64/robust", Samples: 64, Sigma: 0.05, Robust: true},
	}
}

// ChipBenchCase is one workload of the chip price-and-resolve benchmark
// series, shared by the root BenchmarkChipSolve and repro -bench-json so
// both trajectories measure the same instances under the same names.
type ChipBenchCase struct {
	Name string
	Opts bufferkit.ChipGenOpts
}

// ChipBenchCases returns the canonical chip-allocation benchmark series:
// an uncontended instance (every net solves once, no pricing pressure —
// the parallel fan-out floor) and a center-contended instance that
// exercises the full price-and-resolve loop. scale divides the net count
// the same way Config.Scale divides the paper's nets.
func ChipBenchCases(scale int) []ChipBenchCase {
	if scale < 1 {
		scale = 1
	}
	nets := max(16, 256/scale)
	return []ChipBenchCase{
		{"chip/uncontended", bufferkit.ChipGenOpts{
			W: 16, H: 16, Nets: nets, Capacity: 64, Contention: 0, Seed: 1}},
		{"chip/contended", bufferkit.ChipGenOpts{
			W: 16, H: 16, Nets: nets, Capacity: 2, Contention: 0.7, Seed: 1}},
	}
}

// BenchResult is one benchmark measurement in the JSON trajectory format
// consumed by BENCH_*.json tracking.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	NetsPerSec  float64 `json:"nets_per_sec,omitempty"`
	// RoundsToFeasible is the chip series' convergence metric: how many
	// pricing (plus repair) rounds the allocator took to reach zero
	// overflow on the deterministic instance.
	RoundsToFeasible int `json:"rounds_to_feasible,omitempty"`
}

// BenchReport is the top-level JSON document emitted by BenchJSON.
type BenchReport struct {
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Scale      int           `json:"scale"`
	Timestamp  string        `json:"timestamp"`
	Results    []BenchResult `json:"results"`
}

// BenchJSON measures the allocation-discipline benchmarks — single-shot
// insertion, warm-engine insertion, and batch throughput at several worker
// counts — and writes them as one JSON document, so successive revisions
// can be tracked as BENCH_*.json trajectories without parsing `go test
// -bench` text output.
func BenchJSON(cfg Config, w io.Writer) error {
	cfg = cfg.fill()
	t, err := cfg.net(337, 5729)
	if err != nil {
		return fmt.Errorf("bench-json: %w", err)
	}
	lib := library.Generate(16)
	opt := core.Options{Driver: Driver}

	report := BenchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      cfg.Scale,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	add := func(name string, nets int, r testing.BenchmarkResult) {
		br := BenchResult{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if nets > 0 && r.T > 0 {
			br.NetsPerSec = float64(nets*r.N) / r.T.Seconds()
		}
		report.Results = append(report.Results, br)
	}

	add("insert/coldshot", 1, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Insert(t, lib, opt); err != nil {
				b.Fatal(err)
			}
		}
	}))
	add("insert/warm", 1, testing.Benchmark(func(b *testing.B) {
		eng := core.NewEngine()
		if err := eng.Reset(t, lib, opt); err != nil {
			b.Fatal(err)
		}
		res := &core.Result{}
		if err := eng.Run(res); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Run(res); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Warm-engine series: small and large libraries on the industrial net,
	// and 2-pin lines (scaled like the paper's nets) whose long candidate
	// lists make add-wire dominate. The bushy, merge-heavy regime is the
	// eco/regime=bushy/mode=cold series below, which times the same warm
	// run.
	regimes := []struct {
		Name string
		Tree *tree.Tree
		Lib  library.Library
	}{
		{"smallb", t, library.Generate(8)},
		{"largeb", t, library.Generate(64)},
		{"line", netgen.TwoPin(50000/float64(cfg.Scale), max(2, 2000/cfg.Scale), 20, 0, netgen.PaperWire()), library.Generate(16)},
		{"deepline", netgen.TwoPin(100000/float64(cfg.Scale), max(2, 4000/cfg.Scale), 20, 0, netgen.PaperWire()), library.Generate(8)},
	}
	for _, rg := range regimes {
		eng := core.NewEngine()
		if err := eng.Reset(rg.Tree, rg.Lib, opt); err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
		res := &core.Result{}
		if err := eng.Run(res); err != nil { // warm the arena slabs
			return fmt.Errorf("bench-json: %w", err)
		}
		add("engine/regime="+rg.Name, 1, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := eng.Run(res); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// ECO-session series: full warm re-solve vs single-sink-delta session
	// resolve on the same net — the incremental speedup trajectory. The
	// patched RAT cycles so every delta resolve does real work.
	for _, ec := range ECOBenchCases() {
		sink := ec.Tree.Sinks()[0]
		eng := core.NewEngine()
		if err := eng.Reset(ec.Tree, ec.Lib, opt); err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
		res := &core.Result{}
		if err := eng.Run(res); err != nil { // warm the arena slabs
			return fmt.Errorf("bench-json: %w", err)
		}
		add("eco/regime="+ec.Name+"/mode=cold", 1, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := eng.Run(res); err != nil {
					b.Fatal(err)
				}
			}
		}))

		sess, err := core.NewSession(ec.Tree, ec.Lib, opt)
		if err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
		ctx := context.Background()
		for i := 0; i < 8; i++ { // warm: first resolve is full, later ones delta
			if err := sess.PatchSink(sink, 1200+float64(i%7), 8); err != nil {
				return fmt.Errorf("bench-json: %w", err)
			}
			if err := sess.Resolve(ctx, res); err != nil {
				return fmt.Errorf("bench-json: %w", err)
			}
		}
		add("eco/regime="+ec.Name+"/mode=delta", 1, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sess.PatchSink(sink, 1200+float64(i%7), 8); err != nil {
					b.Fatal(err)
				}
				if err := sess.Resolve(ctx, res); err != nil {
					b.Fatal(err)
				}
			}
		}))
		sess.Close()
	}

	// Yield-sweep series: Monte Carlo corner fan-out over the pooled warm
	// engines (internal/variation), tracked alongside the engine series so
	// regressions in the per-corner zero-allocation path show up in the
	// same trajectory. nets/s here means corners/s.
	for _, yb := range YieldBenchCases() {
		solver, err := bufferkit.NewSolver(
			bufferkit.WithLibrary(lib),
			bufferkit.WithDriver(Driver),
			bufferkit.WithSamples(yb.Samples),
			bufferkit.WithSigma(yb.Sigma),
			bufferkit.WithRobustPlacement(yb.Robust),
		)
		if err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
		ctx := context.Background()
		if _, err := solver.SolveYield(ctx, t); err != nil { // warm the pool
			return fmt.Errorf("bench-json: %w", err)
		}
		add(yb.Name, 1+yb.Samples, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := solver.SolveYield(ctx, t); err != nil {
					b.Fatal(err)
				}
			}
		}))
		solver.Close()
	}

	// Chip price-and-resolve series: multi-net allocation over a shared
	// site grid. nets/s here means oracle re-solves per second (the sum of
	// every round's resolved nets), and rounds_to_feasible records the
	// deterministic convergence of the instance.
	for _, cb := range ChipBenchCases(cfg.Scale) {
		solver, err := bufferkit.NewSolver(bufferkit.WithLibrary(lib))
		if err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
		ctx := context.Background()
		inst := bufferkit.GenerateChip(cb.Opts)
		warm, err := solver.SolveChip(ctx, inst) // warm the pool, record rounds
		if err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
		solves := 0
		for _, r := range warm.Rounds {
			solves += r.Resolved
		}
		add(cb.Name, solves, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := solver.SolveChip(ctx, inst); err != nil {
					b.Fatal(err)
				}
			}
		}))
		report.Results[len(report.Results)-1].RoundsToFeasible = len(warm.Rounds)
		solver.Close()
	}

	// Observability-overhead series: the full uncached /v1/solve request
	// path through the HTTP handler — JSON decode, net/library parse, warm
	// pooled engine run, JSON encode — once with tracing plus a JSON
	// request-summary log line (trace=on) and once with the span recorder
	// disabled entirely (trace=off). This pair is the committed trajectory
	// behind the 2% observability budget and mirrors the root
	// BenchmarkServerSolveObs / BenchmarkServerSolveNoObs guard.
	var netBuf, libBuf bytes.Buffer
	if err := bufferkit.WriteNet(&netBuf, &bufferkit.Net{Name: "obsbench", Tree: t, Driver: Driver}); err != nil {
		return fmt.Errorf("bench-json: %w", err)
	}
	if err := bufferkit.WriteLibrary(&libBuf, lib); err != nil {
		return fmt.Errorf("bench-json: %w", err)
	}
	solveBody, err := json.Marshal(map[string]string{"net": netBuf.String(), "library": libBuf.String()})
	if err != nil {
		return fmt.Errorf("bench-json: %w", err)
	}
	for _, oc := range []struct {
		name string
		cfg  server.Config
	}{
		{"obs/trace=on", server.Config{CacheEntries: -1, Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))}},
		{"obs/trace=off", server.Config{CacheEntries: -1, TraceRing: -1}},
	} {
		h := server.New(oc.cfg).Handler()
		add(oc.name, 1, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(solveBody))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("solve status %d: %s", rec.Code, rec.Body.String())
				}
			}
		}))
	}

	// Batch throughput series: RunBatch over the shared small-net workload
	// at several worker counts (GOMAXPROCS is recorded in the report).
	nets := BatchWorkload(256)
	for _, workers := range []int{1, 2, 4, 8} {
		solver, err := bufferkit.NewSolver(
			bufferkit.WithLibrary(lib),
			bufferkit.WithDriver(Driver),
			bufferkit.WithWorkers(workers),
		)
		if err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
		ctx := context.Background()
		add(fmt.Sprintf("batch/w%d", workers), len(nets), testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := solver.RunBatch(ctx, nets); err != nil {
					b.Fatal(err)
				}
			}
		}))
		solver.Close()
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
