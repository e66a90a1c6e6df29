package bufferkit_test

import (
	"context"
	"math"
	"testing"

	"bufferkit"
	"bufferkit/internal/netgen"
)

// batchNets builds n deterministic random nets of varying shapes.
func batchNets(n int) []*bufferkit.Tree {
	nets := make([]*bufferkit.Tree, n)
	for i := range nets {
		nets[i] = bufferkit.RandomNet(bufferkit.NetOpts{
			Sinks: 4 + i%13,
			Seed:  int64(i) * 31,
		})
	}
	return nets
}

// batchSolver builds a Solver for the batch tests.
func batchSolver(t *testing.T, lib bufferkit.Library, opts ...bufferkit.Option) *bufferkit.Solver {
	t.Helper()
	s, err := bufferkit.NewSolver(append([]bufferkit.Option{bufferkit.WithLibrary(lib)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestInsertBatchMatchesSequential is the batch correctness property: with
// any worker count, RunBatch must produce results byte-identical to a
// sequential Run per net — same slack bits, same placement, same stats —
// positionally aligned with the input.
func TestInsertBatchMatchesSequential(t *testing.T) {
	nets := batchNets(72)
	lib := bufferkit.GenerateLibrary(12)
	d := bufferkit.Driver{R: 0.25, K: 10}

	seq := batchSolver(t, lib, bufferkit.WithDriver(d))
	want := make([]*bufferkit.NetResult, len(nets))
	for i, tr := range nets {
		res, err := seq.Run(context.Background(), tr)
		if err != nil {
			t.Fatalf("net %d: %v", i, err)
		}
		want[i] = res
	}

	for _, workers := range []int{1, 3, 8} {
		s := batchSolver(t, lib, bufferkit.WithDriver(d), bufferkit.WithWorkers(workers))
		got, err := s.RunBatch(context.Background(), nets)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(nets) {
			t.Fatalf("workers=%d: %d results for %d nets", workers, len(got), len(nets))
		}
		for i := range got {
			if got[i] == nil {
				t.Fatalf("workers=%d net %d: nil result", workers, i)
			}
			if got[i].Index != i {
				t.Fatalf("workers=%d net %d: index %d", workers, i, got[i].Index)
			}
			if math.Float64bits(got[i].Slack) != math.Float64bits(want[i].Slack) {
				t.Fatalf("workers=%d net %d: slack %v != sequential %v", workers, i, got[i].Slack, want[i].Slack)
			}
			if len(got[i].Placement) != len(want[i].Placement) {
				t.Fatalf("workers=%d net %d: placement length differs", workers, i)
			}
			for v := range got[i].Placement {
				if got[i].Placement[v] != want[i].Placement[v] {
					t.Fatalf("workers=%d net %d vertex %d: placement %d != %d",
						workers, i, v, got[i].Placement[v], want[i].Placement[v])
				}
			}
			if got[i].Candidates != want[i].Candidates || !sameCounters(got[i].Stats, want[i].Stats) {
				t.Fatalf("workers=%d net %d: stats diverged", workers, i)
			}
		}
	}
}

// TestInsertBatchConcurrent exercises the RunBatch worker pool with maximum
// overlap (more nets than workers, all workers busy); run with -race this
// is the batch data-race test required for the concurrent arena/engine
// design.
func TestInsertBatchConcurrent(t *testing.T) {
	nets := batchNets(96)
	s := batchSolver(t, bufferkit.GenerateLibrary(8),
		bufferkit.WithDriver(bufferkit.Driver{R: 0.3, K: 5}), bufferkit.WithWorkers(8))
	for round := 0; round < 3; round++ {
		res, err := s.RunBatch(context.Background(), nets)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r == nil || r.Placement.Count() == 0 && r.Slack == 0 {
				t.Fatalf("round %d net %d: implausible result %+v", round, i, r)
			}
		}
	}
}

// TestInsertBatchPartialFailure: failed nets surface in a *BatchError while
// healthy nets still return results.
func TestInsertBatchPartialFailure(t *testing.T) {
	nets := batchNets(6)
	// Net 2 demands negative polarity, which a buffer-only library cannot
	// serve.
	bad := bufferkit.NewTreeBuilder()
	v := bad.AddBufferPos(0, 1, 1)
	bad.AddSinkPol(v, 1, 1, 2, 100, bufferkit.Negative)
	nets[2] = bad.MustBuild()

	s := batchSolver(t, bufferkit.GenerateLibrary(4), bufferkit.WithWorkers(2))
	res, err := s.RunBatch(context.Background(), nets)
	be, ok := err.(*bufferkit.BatchError)
	if !ok {
		t.Fatalf("err = %v, want *BatchError", err)
	}
	if len(be.Errs) != 1 || be.Errs[2] == nil {
		t.Fatalf("Errs = %v, want exactly net 2", be.Errs)
	}
	if res[2] != nil {
		t.Fatal("failed net produced a result")
	}
	for i, r := range res {
		if i != 2 && r == nil {
			t.Fatalf("healthy net %d lost its result", i)
		}
	}
}

func TestInsertBatchDriverMismatch(t *testing.T) {
	nets := batchNets(3)
	s := batchSolver(t, bufferkit.GenerateLibrary(4), bufferkit.WithDrivers(make([]bufferkit.Driver, 2)))
	if _, err := s.RunBatch(context.Background(), nets); err == nil {
		t.Fatal("accepted mismatched per-net drivers")
	}
}

func TestInsertBatchEmpty(t *testing.T) {
	s := batchSolver(t, bufferkit.GenerateLibrary(4))
	res, err := s.RunBatch(context.Background(), nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
}

// TestWarmEngineZeroAllocs is the tentpole's acceptance assertion: once an
// Engine has run a net, re-running the same-shaped instance performs zero
// steady-state heap allocations — decisions, candidate nodes, list headers
// and every scratch buffer come from memory retained across runs.
func TestWarmEngineZeroAllocs(t *testing.T) {
	tr, err := netgen.Industrial(40, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	lib := bufferkit.GenerateLibrary(16)
	opt := bufferkit.Options{Driver: bufferkit.Driver{R: 0.2, K: 15}}

	eng := bufferkit.NewEngine()
	if err := eng.Reset(tr, lib, opt); err != nil {
		t.Fatal(err)
	}
	res := &bufferkit.Result{}
	if err := eng.Run(res); err != nil {
		t.Fatal(err)
	}
	cold := solveWith(t, tr, bufferkit.WithLibrary(lib), bufferkit.WithDriver(opt.Driver))
	if math.Float64bits(res.Slack) != math.Float64bits(cold.Slack) {
		t.Fatalf("warm %v != cold %v", res.Slack, cold.Slack)
	}

	allocs := testing.AllocsPerRun(20, func() {
		if err := eng.Run(res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("warm Engine.Run allocates %.1f objects per run, want 0", allocs)
	}

	// Reset to the same instance must stay allocation-free too.
	allocs = testing.AllocsPerRun(20, func() {
		if err := eng.Reset(tr, lib, opt); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("warm Reset+Run allocates %.1f objects per run, want 0", allocs)
	}
}

// TestWarmEngineAcrossShapes: an engine hopping between differently shaped
// nets still produces exact results (scratch resizing is correct).
func TestWarmEngineAcrossShapes(t *testing.T) {
	lib := bufferkit.GenerateLibrary(8)
	d := bufferkit.Driver{R: 0.3}
	eng := bufferkit.NewEngine()
	res := &bufferkit.Result{}
	for i, tr := range batchNets(24) {
		if err := eng.Reset(tr, lib, bufferkit.Options{Driver: d}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(res); err != nil {
			t.Fatal(err)
		}
		want := solveWith(t, tr, bufferkit.WithLibrary(lib), bufferkit.WithDriver(d))
		if math.Float64bits(res.Slack) != math.Float64bits(want.Slack) {
			t.Fatalf("net %d: warm engine %v != fresh %v", i, res.Slack, want.Slack)
		}
		chk, err := bufferkit.Evaluate(tr, lib, res.Placement, d)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(chk.Slack-res.Slack) > 1e-6 {
			t.Fatalf("net %d: oracle %g != reported %g", i, chk.Slack, res.Slack)
		}
	}
}

func TestEngineRunBeforeReset(t *testing.T) {
	if err := bufferkit.NewEngine().Run(&bufferkit.Result{}); err == nil {
		t.Fatal("Run before Reset must fail")
	}
}

// TestEngineFailedResetBlocksRun: a failed Reset must not leave the
// previous instance runnable — Run after it must error, not silently
// report the stale net's result.
func TestEngineFailedResetBlocksRun(t *testing.T) {
	eng := bufferkit.NewEngine()
	good := bufferkit.TwoPinNet(2000, 4, 10, 1000, bufferkit.PaperWire())
	if err := eng.Reset(good, bufferkit.GenerateLibrary(4), bufferkit.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(&bufferkit.Result{}); err != nil {
		t.Fatal(err)
	}

	bad := bufferkit.NewTreeBuilder()
	v := bad.AddBufferPos(0, 1, 1)
	bad.AddSinkPol(v, 1, 1, 2, 100, bufferkit.Negative)
	if err := eng.Reset(bad.MustBuild(), bufferkit.GenerateLibrary(4), bufferkit.Options{}); err == nil {
		t.Fatal("Reset accepted an infeasible instance")
	}
	if err := eng.Run(&bufferkit.Result{}); err == nil {
		t.Fatal("Run after failed Reset reported a stale result")
	}
	// Release also de-arms the engine.
	if err := eng.Reset(good, bufferkit.GenerateLibrary(4), bufferkit.Options{}); err != nil {
		t.Fatal(err)
	}
	eng.Release()
	if err := eng.Run(&bufferkit.Result{}); err == nil {
		t.Fatal("Run after Release must fail until the next Reset")
	}
}
