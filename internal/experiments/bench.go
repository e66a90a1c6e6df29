package experiments

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"bufferkit"
	"bufferkit/internal/core"
	"bufferkit/internal/library"
	"bufferkit/internal/netgen"
	"bufferkit/internal/server"
	"bufferkit/internal/tree"
)

// Series is one named series of the engine benchmark suite. Bench is the
// series' only definition: repro -bench-json times it with
// testing.Benchmark, and the root BenchmarkSuite runs it as the
// sub-benchmark of the same name.
type Series struct {
	Name  string
	Bench func(*testing.B)
}

// Suite returns the engine benchmark suite at cfg's scale and seed, in the
// order BENCH_engine.json records it. Every series reports nets/s (for
// yield/ that counts corners, for chip/ oracle re-solves over all pricing
// rounds); the chip/ series also report rounds, the instance's
// deterministic rounds-to-feasible. Each workload is built once per Suite
// call, on first use.
func Suite(cfg Config) []Series {
	cfg = cfg.fill()
	opt := core.Options{Driver: Driver}
	lib := library.Generate(16)

	industrial := sync.OnceValues(func() (*tree.Tree, error) { return cfg.Net(337, 5729) })
	// 2-pin lines scaled like the paper's nets: long candidate lists make
	// add-wire dominate.
	line := sync.OnceValues(func() (*tree.Tree, error) {
		return netgen.TwoPin(50000/float64(cfg.Scale), max(2, 2000/cfg.Scale), 20, 0, netgen.PaperWire()), nil
	})
	deepline := sync.OnceValues(func() (*tree.Tree, error) {
		return netgen.TwoPin(100000/float64(cfg.Scale), max(2, 4000/cfg.Scale), 20, 0, netgen.PaperWire()), nil
	})
	// The ECO nets are deliberately bushy: a single-sink delta dirties one
	// leaf-to-root path, a thin slice of a balanced tree, which is the
	// regime ECO loops live in (a 2-pin line would dirty everything).
	bushy := sync.OnceValues(func() (*tree.Tree, error) {
		return netgen.Balanced(3, 6, 400, 8, 1200, netgen.PaperWire()), nil
	})
	wide := sync.OnceValues(func() (*tree.Tree, error) {
		return netgen.Balanced(4, 5, 400, 8, 1200, netgen.PaperWire()), nil
	})
	smallNets := sync.OnceValue(func() []*tree.Tree {
		nets := make([]*tree.Tree, 256)
		for i := range nets {
			nets[i] = netgen.Random(netgen.Opts{Sinks: 4 + i%13, Seed: int64(i) * 31})
		}
		return nets
	})
	solveBody := sync.OnceValues(func() ([]byte, error) {
		t, err := industrial()
		if err != nil {
			return nil, err
		}
		var netBuf, libBuf bytes.Buffer
		if err := bufferkit.WriteNet(&netBuf, &bufferkit.Net{Name: "obsbench", Tree: t, Driver: Driver}); err != nil {
			return nil, err
		}
		if err := bufferkit.WriteLibrary(&libBuf, lib); err != nil {
			return nil, err
		}
		return json.Marshal(map[string]string{"net": netBuf.String(), "library": libBuf.String()})
	})

	// coldshot: the single-shot path, a fresh engine and arena per call.
	coldshot := func(b *testing.B) {
		t := need(b, industrial)
		loop(b, 1, func() error {
			_, err := core.Insert(t, lib, opt)
			return err
		})
	}
	// warm: a warm engine re-running one net; it keeps its arena and
	// scratch across runs, so its steady state allocates nothing.
	warm := func(net func() (*tree.Tree, error), lib library.Library) func(*testing.B) {
		return func(b *testing.B) {
			eng := core.NewEngine()
			if err := eng.Reset(need(b, net), lib, opt); err != nil {
				b.Fatal(err)
			}
			res := &core.Result{}
			loop(b, 1, func() error { return eng.Run(res) })
		}
	}
	// delta: an ECO session resolve after one sink patch, which recomputes
	// only the leaf-to-root path; pair it with warm on the same net for the
	// incremental speedup. The patched RAT changes on every call: a patch
	// to the current value marks nothing dirty and would time an empty
	// resolve.
	delta := func(net func() (*tree.Tree, error)) func(*testing.B) {
		return func(b *testing.B) {
			t := need(b, net)
			sess, err := core.NewSession(t, lib, opt)
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			sink := t.Sinks()[0]
			ctx := context.Background()
			res := &core.Result{}
			k := 0
			patch := func() error {
				k = (k + 1) % 7
				if err := sess.PatchSink(sink, 1200+float64(k), 8); err != nil {
					return err
				}
				return sess.Resolve(ctx, res)
			}
			// The first resolve is full and the next few deltas still grow
			// the session's arena; with loop's warm-up, nine calls pass them.
			for i := 0; i < 8; i++ {
				if err := patch(); err != nil {
					b.Fatal(err)
				}
			}
			loop(b, 1, patch)
		}
	}
	// yield: a Monte Carlo corner sweep over pooled warm engines; robust
	// adds the cross-corner re-scoring of every distinct placement.
	yield := func(samples int, robust bool) func(*testing.B) {
		return func(b *testing.B) {
			t := need(b, industrial)
			solver, err := bufferkit.NewSolver(
				bufferkit.WithLibrary(lib),
				bufferkit.WithDriver(Driver),
				bufferkit.WithSamples(samples),
				bufferkit.WithSigma(0.05),
				bufferkit.WithRobustPlacement(robust),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer solver.Close()
			ctx := context.Background()
			loop(b, 1+samples, func() error {
				_, err := solver.SolveYield(ctx, t)
				return err
			})
		}
	}
	// chip: price-and-resolve allocation of many nets over a shared site
	// grid; the net count is divided by the scale like the paper's nets.
	chip := func(capacity int, contention float64) func(*testing.B) {
		inst := sync.OnceValue(func() *bufferkit.ChipInstance {
			return bufferkit.GenerateChip(bufferkit.ChipGenOpts{
				W: 16, H: 16, Nets: max(16, 256/cfg.Scale),
				Capacity: capacity, Contention: contention, Seed: 1,
			})
		})
		return func(b *testing.B) {
			solver, err := bufferkit.NewSolver(bufferkit.WithLibrary(lib))
			if err != nil {
				b.Fatal(err)
			}
			defer solver.Close()
			ctx := context.Background()
			first, err := solver.SolveChip(ctx, inst())
			if err != nil {
				b.Fatal(err)
			}
			solves := 0
			for _, r := range first.Rounds {
				solves += r.Resolved
			}
			loop(b, solves, func() error {
				_, err := solver.SolveChip(ctx, inst())
				return err
			})
			b.ReportMetric(float64(len(first.Rounds)), "rounds")
		}
	}
	// obs: the full uncached /v1/solve request through the HTTP handler.
	// The trace=on/off pair is the trajectory behind the 2% observability
	// budget.
	obs := func(sc server.Config) func(*testing.B) {
		return func(b *testing.B) {
			body := need(b, solveBody)
			h := server.New(sc).Handler()
			loop(b, 1, func() error {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("solve status %d: %s", rec.Code, rec.Body)
				}
				return nil
			})
		}
	}
	// batch: RunBatch throughput over 256 mixed small nets.
	batch := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			nets := smallNets()
			solver, err := bufferkit.NewSolver(
				bufferkit.WithLibrary(lib),
				bufferkit.WithDriver(Driver),
				bufferkit.WithWorkers(workers),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer solver.Close()
			ctx := context.Background()
			loop(b, len(nets), func() error {
				_, err := solver.RunBatch(ctx, nets)
				return err
			})
		}
	}

	return []Series{
		{"insert/coldshot", coldshot},
		{"insert/warm", warm(industrial, lib)},
		{"engine/regime=smallb", warm(industrial, library.Generate(8))},
		{"engine/regime=largeb", warm(industrial, library.Generate(64))},
		{"engine/regime=line", warm(line, lib)},
		{"engine/regime=deepline", warm(deepline, library.Generate(8))},
		{"eco/regime=bushy/mode=cold", warm(bushy, lib)},
		{"eco/regime=bushy/mode=delta", delta(bushy)},
		{"eco/regime=wide/mode=cold", warm(wide, lib)},
		{"eco/regime=wide/mode=delta", delta(wide)},
		{"yield/samples=16", yield(16, false)},
		{"yield/samples=64", yield(64, false)},
		{"yield/samples=64/robust", yield(64, true)},
		{"chip/uncontended", chip(64, 0)},
		{"chip/contended", chip(2, 0.7)},
		{"obs/trace=on", obs(server.Config{CacheEntries: -1, Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})},
		{"obs/trace=off", obs(server.Config{CacheEntries: -1, TraceRing: -1})},
		{"batch/w1", batch(1)},
		{"batch/w2", batch(2)},
		{"batch/w4", batch(4)},
		{"batch/w8", batch(8)},
	}
}

// need returns a lazily built workload, failing b if building it failed.
func need[T any](b *testing.B, build func() (T, error)) T {
	b.Helper()
	v, err := build()
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// loop times op over b.N iterations and reports nets/s, counting nets nets
// per op. One untimed call first warms engine slabs and pools.
func loop(b *testing.B, nets int, op func() error) {
	b.Helper()
	if err := op(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nets*b.N)/b.Elapsed().Seconds(), "nets/s")
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

// BenchReport is the top-level JSON document emitted by BenchJSON. GOGC is
// the collector setting in effect while the series ran, and CPUModel the
// machine's first /proc/cpuinfo "model name".
type BenchReport struct {
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	GOGC       uint64        `json:"gogc"`
	CPUModel   string        `json:"cpu_model"`
	Scale      int           `json:"scale"`
	Timestamp  string        `json:"timestamp"`
	Results    []BenchResult `json:"results"`
}

// BenchJSON times every Suite series once with testing.Benchmark and
// writes them as one JSON document, so successive revisions can be
// tracked as BENCH_*.json trajectories without parsing `go test -bench`
// text output.
func BenchJSON(cfg Config, w io.Writer) error {
	cfg = cfg.fill()
	report := BenchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc(),
		CPUModel:   cpuModel(),
		Scale:      cfg.Scale,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	for _, s := range Suite(cfg) {
		failed := false
		r := testing.Benchmark(func(b *testing.B) {
			defer func() { failed = failed || b.Failed() }()
			s.Bench(b)
		})
		if failed {
			return fmt.Errorf("bench-json: series %s failed", s.Name)
		}
		report.Results = append(report.Results, BenchResult{
			Name:             s.Name,
			Iterations:       r.N,
			NsPerOp:          float64(r.NsPerOp()),
			AllocsPerOp:      r.AllocsPerOp(),
			BytesPerOp:       r.AllocedBytesPerOp(),
			NetsPerSec:       r.Extra["nets/s"],
			RoundsToFeasible: int(r.Extra["rounds"]),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// gogc reads the collector's effective GOGC percent, which reflects
// debug.SetGCPercent as well as the environment.
func gogc() uint64 {
	s := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
