package bufferkit_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"bufferkit"
	"bufferkit/internal/core"
	"bufferkit/internal/costopt"
	"bufferkit/internal/testutil"
	"bufferkit/internal/vanginneken"
)

func ctxBG() context.Context { return context.Background() }

// equalBits asserts two slacks are bit-identical.
func equalBits(t *testing.T, label string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: slack %v (bits %x) != legacy %v (bits %x)",
			label, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// sameCounters reports whether two runs performed identical DP work:
// every counter equal, ignoring ArenaBytes — the footprint depends on slab
// warmth, not on the work performed.
func sameCounters(a, b bufferkit.Stats) bool {
	a.ArenaBytes, b.ArenaBytes = 0, 0
	return a == b
}

func equalPlacement(t *testing.T, label string, got, want bufferkit.Placement) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: placement length %d != %d", label, len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d: placement %d != %d", label, v, got[v], want[v])
		}
	}
}

// TestSolverEquivalence is the tentpole acceptance test: Solver.Run must
// dispatch every built-in algorithm through the Algorithm interface with
// results bit-identical to the legacy entry points in the internal
// packages.
func TestSolverEquivalence(t *testing.T) {
	d := bufferkit.Driver{R: 0.25, K: 10}
	nets := map[string]*bufferkit.Tree{
		"twopin": bufferkit.TwoPinNet(9000, 18, 12, 800, bufferkit.PaperWire()),
		"random": bufferkit.RandomNet(bufferkit.NetOpts{Sinks: 11, Seed: 42}),
	}

	for name, net := range nets {
		t.Run("new/"+name, func(t *testing.T) {
			lib := bufferkit.GenerateLibrary(12)
			want, err := core.Insert(net, lib, core.Options{Driver: d})
			if err != nil {
				t.Fatal(err)
			}
			s, err := bufferkit.NewSolver(bufferkit.WithLibrary(lib), bufferkit.WithDriver(d))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			got, err := s.Run(ctxBG(), net)
			if err != nil {
				t.Fatal(err)
			}
			equalBits(t, "new", got.Slack, want.Slack)
			equalPlacement(t, "new", got.Placement, want.Placement)
			if got.Candidates != want.Candidates || !sameCounters(got.Stats, want.Stats) {
				t.Fatalf("stats diverged: %+v vs %+v", got.Stats, want.Stats)
			}
		})

		t.Run("lillis/"+name, func(t *testing.T) {
			lib := bufferkit.GenerateLibrary(6)
			want, err := core.Insert(net, lib, core.Options{Driver: d, Lillis: true})
			if err != nil {
				t.Fatal(err)
			}
			hull, err := core.Insert(net, lib, core.Options{Driver: d})
			if err != nil {
				t.Fatal(err)
			}
			if !testutil.AlmostEqual(want.Slack, hull.Slack) {
				t.Fatalf("lillis slack %v, new %v", want.Slack, hull.Slack)
			}
			s, err := bufferkit.NewSolver(
				bufferkit.WithLibrary(lib),
				bufferkit.WithDriver(d),
				bufferkit.WithAlgorithm(bufferkit.AlgoLillis),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			got, err := s.Run(ctxBG(), net)
			if err != nil {
				t.Fatal(err)
			}
			equalBits(t, "lillis", got.Slack, want.Slack)
			equalPlacement(t, "lillis", got.Placement, want.Placement)
			if got.Candidates != want.Candidates || !sameCounters(got.Stats, want.Stats) {
				t.Fatalf("stats diverged: %+v vs %+v", got.Stats, want.Stats)
			}
		})

		t.Run("vanginneken/"+name, func(t *testing.T) {
			lib := bufferkit.GenerateLibrary(1)
			want, err := vanginneken.Insert(net, lib[0], d)
			if err != nil {
				t.Fatal(err)
			}
			s, err := bufferkit.NewSolver(
				bufferkit.WithLibrary(lib),
				bufferkit.WithDriver(d),
				bufferkit.WithAlgorithm(bufferkit.AlgoVanGinneken),
			)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Run(ctxBG(), net)
			if err != nil {
				t.Fatal(err)
			}
			equalBits(t, "vanginneken", got.Slack, want.Slack)
			equalPlacement(t, "vanginneken", got.Placement, want.Placement)
			if got.Candidates != want.Candidates || got.Stats.MaxListLen != want.MaxListLen {
				t.Fatalf("counters diverged: %+v vs %+v", got, want)
			}
		})

		t.Run("costslack/"+name, func(t *testing.T) {
			lib := bufferkit.GenerateLibrary(4)
			want, err := costopt.Pareto(net, lib, costopt.Options{Driver: d})
			if err != nil {
				t.Fatal(err)
			}
			s, err := bufferkit.NewSolver(
				bufferkit.WithLibrary(lib),
				bufferkit.WithDriver(d),
				bufferkit.WithAlgorithm(bufferkit.AlgoCostSlack),
			)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Run(ctxBG(), net)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Frontier) != len(want) {
				t.Fatalf("frontier size %d != %d", len(got.Frontier), len(want))
			}
			for i := range want {
				if got.Frontier[i].Cost != want[i].Cost {
					t.Fatalf("point %d: cost %d != %d", i, got.Frontier[i].Cost, want[i].Cost)
				}
				equalBits(t, "costslack point", got.Frontier[i].Slack, want[i].Slack)
				equalPlacement(t, "costslack point", got.Frontier[i].Placement, want[i].Placement)
			}
			equalBits(t, "costslack best", got.Slack, want[len(want)-1].Slack)
		})
	}
}

func TestNewSolverValidation(t *testing.T) {
	if _, err := bufferkit.NewSolver(); err == nil {
		t.Fatal("NewSolver accepted a missing library")
	}
	var verr *bufferkit.ValidationError
	_, err := bufferkit.NewSolver(bufferkit.WithLibrary(bufferkit.Library{}))
	if !errors.As(err, &verr) {
		t.Fatalf("empty library error %v is not a *ValidationError", err)
	}
	_, err = bufferkit.NewSolver(
		bufferkit.WithLibrary(bufferkit.GenerateLibrary(4)),
		bufferkit.WithAlgorithm("does-not-exist"),
	)
	if !errors.As(err, &verr) || verr.Field != "algorithm" {
		t.Fatalf("unknown algorithm: got %v, want a *ValidationError on algorithm", err)
	}
	_, err = bufferkit.NewSolver(
		bufferkit.WithLibrary(bufferkit.GenerateLibrary(4)),
		bufferkit.WithAlgorithm(bufferkit.AlgoCostSlack),
		bufferkit.WithMaxCost(-3),
	)
	if !errors.As(err, &verr) || verr.Field != "max_cost" {
		t.Fatalf("negative max cost: got %v, want a *ValidationError on max_cost", err)
	}
}

// echoAlgo is a registry-extension probe: a third-party algorithm that
// plugs in through Register without touching the facade.
type echoAlgo struct{}

func (echoAlgo) Name() string { return "echo" }
func (echoAlgo) Solve(ctx context.Context, tr *bufferkit.Tree, cfg bufferkit.RunConfig) (*bufferkit.NetResult, error) {
	return &bufferkit.NetResult{Slack: 123, Placement: bufferkit.NewPlacement(tr.Len())}, nil
}

// registerEcho guards against duplicate registration when the test binary
// runs the test more than once in-process (-count=2, stress runs).
var registerEcho = sync.OnceFunc(func() {
	bufferkit.Register("echo", func() bufferkit.Algorithm { return echoAlgo{} })
})

func TestRegisterThirdPartyAlgorithm(t *testing.T) {
	registerEcho()
	found := false
	for _, name := range bufferkit.Algorithms() {
		if name == "echo" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered algorithm not listed")
	}
	s, err := bufferkit.NewSolver(
		bufferkit.WithLibrary(bufferkit.GenerateLibrary(2)),
		bufferkit.WithAlgorithm("echo"),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(ctxBG(), bufferkit.TwoPinNet(1000, 2, 5, 100, bufferkit.PaperWire()))
	if err != nil || res.Slack != 123 {
		t.Fatalf("custom algorithm did not dispatch: res=%+v err=%v", res, err)
	}
}

func TestTypedErrors(t *testing.T) {
	// Polarity the library cannot serve → *ValidationError with vertex
	// and field detail.
	b := bufferkit.NewTreeBuilder()
	v := b.AddBufferPos(0, 1, 1)
	b.AddSinkPol(v, 1, 1, 2, 100, bufferkit.Negative)
	net := b.MustBuild()
	s, err := bufferkit.NewSolver(bufferkit.WithLibrary(bufferkit.GenerateLibrary(4)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(ctxBG(), net)
	var verr *bufferkit.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("err %v is not a *ValidationError", err)
	}
	if verr.Vertex != 2 || verr.Field != "polarity" {
		t.Fatalf("ValidationError detail wrong: %+v", verr)
	}

	// Negative-polarity sink with inverters in the library but nowhere to
	// put one → ErrInfeasible.
	b2 := bufferkit.NewTreeBuilder()
	b2.AddSinkPol(0, 1, 1, 2, 100, bufferkit.Negative)
	s2, err := bufferkit.NewSolver(bufferkit.WithLibrary(bufferkit.GenerateLibraryWithInverters(4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(ctxBG(), b2.MustBuild()); !errors.Is(err, bufferkit.ErrInfeasible) {
		t.Fatalf("err %v does not wrap ErrInfeasible", err)
	}

	// A canceled context → ErrCanceled.
	ctx, cancel := context.WithCancel(ctxBG())
	cancel()
	good := bufferkit.TwoPinNet(2000, 4, 10, 1000, bufferkit.PaperWire())
	if _, err := s.Run(ctx, good); !errors.Is(err, bufferkit.ErrCanceled) {
		t.Fatalf("err %v does not wrap ErrCanceled", err)
	}
}

// TestStreamMatchesRun: streaming yields every net exactly once with the
// same result a sequential Run produces, in whatever completion order.
func TestStreamMatchesRun(t *testing.T) {
	nets := batchNets(40)
	lib := bufferkit.GenerateLibrary(8)
	d := bufferkit.Driver{R: 0.25, K: 10}
	s, err := bufferkit.NewSolver(
		bufferkit.WithLibrary(lib),
		bufferkit.WithDriver(d),
		bufferkit.WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}

	seen := map[int]*bufferkit.NetResult{}
	for res, err := range s.Stream(ctxBG(), nets) {
		if err != nil {
			t.Fatalf("net %d: %v", res.Index, err)
		}
		if _, dup := seen[res.Index]; dup {
			t.Fatalf("net %d yielded twice", res.Index)
		}
		r := res
		seen[res.Index] = &r
	}
	if len(seen) != len(nets) {
		t.Fatalf("stream yielded %d of %d nets", len(seen), len(nets))
	}
	var indices []int
	for i := range seen {
		indices = append(indices, i)
	}
	sort.Ints(indices)
	for _, i := range indices {
		want, err := s.Run(ctxBG(), nets[i])
		if err != nil {
			t.Fatal(err)
		}
		equalBits(t, "stream", seen[i].Slack, want.Slack)
		equalPlacement(t, "stream", seen[i].Placement, want.Placement)
	}
}

// waitGoroutines polls until the goroutine count settles back to base,
// failing with a full stack dump if it does not — the manual goroutine
// leak check for the streaming machinery.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestStreamEarlyBreak: breaking out of the loop stops the workers — no
// goroutine outlives the iterator.
func TestStreamEarlyBreak(t *testing.T) {
	base := runtime.NumGoroutine()
	nets := batchNets(64)
	s, err := bufferkit.NewSolver(
		bufferkit.WithLibrary(bufferkit.GenerateLibrary(8)),
		bufferkit.WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, err := range s.Stream(ctxBG(), nets) {
		if err != nil {
			t.Fatal(err)
		}
		if count++; count == 3 {
			break
		}
	}
	if count != 3 {
		t.Fatalf("consumed %d results, want 3", count)
	}
	waitGoroutines(t, base)
}

// TestStreamCancelMidRun: canceling the context mid-stream ends the
// sequence early without yielding every net and without leaking
// goroutines.
func TestStreamCancelMidRun(t *testing.T) {
	base := runtime.NumGoroutine()
	nets := batchNets(64)
	s, err := bufferkit.NewSolver(
		bufferkit.WithLibrary(bufferkit.GenerateLibrary(8)),
		bufferkit.WithWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(ctxBG())
	defer cancel()
	count := 0
	for _, err := range s.Stream(ctx, nets) {
		if err != nil {
			t.Fatalf("unexpected per-net error: %v", err)
		}
		if count++; count == 2 {
			cancel()
		}
	}
	// After cancel at 2, only already-in-flight results may still arrive:
	// at most workers + channel buffer more.
	if count > 8 {
		t.Fatalf("stream yielded %d results after a cancel at 2", count)
	}
	waitGoroutines(t, base)
}

// TestRunBatchCanceledPromptly is the satellite acceptance test: RunBatch
// under a canceled context returns promptly with ErrCanceled and leaks no
// goroutines.
func TestRunBatchCanceledPromptly(t *testing.T) {
	base := runtime.NumGoroutine()
	// 12 nets × ~20 ms each on 2 workers ≈ 120 ms of work.
	nets := make([]*bufferkit.Tree, 12)
	for i := range nets {
		tr, err := bufferkit.IndustrialNet(200, 8000, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = tr
	}
	s, err := bufferkit.NewSolver(
		bufferkit.WithLibrary(bufferkit.GenerateLibrary(16)),
		bufferkit.WithDriver(bufferkit.Driver{R: 0.2, K: 15}),
		bufferkit.WithWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-canceled: nothing runs, the error wraps ErrCanceled.
	ctx, cancel := context.WithCancel(ctxBG())
	cancel()
	start := time.Now()
	results, err := s.RunBatch(ctx, nets)
	if !errors.Is(err, bufferkit.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled RunBatch took %s", elapsed)
	}
	for i, r := range results {
		if r != nil {
			t.Fatalf("net %d ran under a canceled context", i)
		}
	}
	waitGoroutines(t, base)

	// Mid-run: cancel fires while workers are inside the per-vertex loops;
	// RunBatch returns the completed results plus ErrCanceled. (The fully
	// deterministic mid-run cancel — triggered from inside the consuming
	// loop — is TestStreamCancelMidRun; this phase additionally checks the
	// RunBatch error surface, skipping if the hardware outran the timer.)
	ctx2, cancel2 := context.WithCancel(ctxBG())
	timer := time.AfterFunc(25*time.Millisecond, cancel2)
	defer timer.Stop()
	defer cancel2()
	_, err = s.RunBatch(ctx2, nets)
	waitGoroutines(t, base)
	if err == nil {
		t.Skip("batch finished before the 25 ms cancel fired")
	}
	if !errors.Is(err, bufferkit.ErrCanceled) {
		t.Fatalf("mid-run err = %v, want ErrCanceled", err)
	}
}

// TestRunBatchMatchesInsertBatch: RunBatch on a worker pool returns, per
// net and positionally aligned, exactly what one warm public Engine
// produces by Reset/Run in sequence — the per-net Result contract the
// removed InsertBatch wrapper exposed.
func TestRunBatchMatchesInsertBatch(t *testing.T) {
	nets := batchNets(24)
	lib := bufferkit.GenerateLibrary(8)
	d := bufferkit.Driver{R: 0.3, K: 5}

	eng := bufferkit.NewEngine()
	want := make([]bufferkit.Result, len(nets))
	for i, tr := range nets {
		if err := eng.Reset(tr, lib, bufferkit.Options{Driver: d}); err != nil {
			t.Fatalf("net %d: %v", i, err)
		}
		if err := eng.Run(&want[i]); err != nil {
			t.Fatalf("net %d: %v", i, err)
		}
	}
	s, err := bufferkit.NewSolver(
		bufferkit.WithLibrary(lib),
		bufferkit.WithDriver(d),
		bufferkit.WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.RunBatch(ctxBG(), nets)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nets {
		equalBits(t, "batch", got[i].Slack, want[i].Slack)
		equalPlacement(t, "batch", got[i].Placement, want[i].Placement)
		if got[i].Index != i {
			t.Fatalf("net %d: index %d", i, got[i].Index)
		}
	}
}
