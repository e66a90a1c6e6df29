package bufferkit_test

import (
	"context"
	"errors"
	"testing"

	"bufferkit"
)

// yieldSolver builds a solver configured for a small Monte Carlo sweep.
func yieldSolver(t *testing.T, opts ...bufferkit.Option) *bufferkit.Solver {
	t.Helper()
	base := []bufferkit.Option{
		bufferkit.WithLibrary(bufferkit.GenerateLibrary(8)),
		bufferkit.WithDriver(bufferkit.Driver{R: 0.2, K: 15}),
	}
	s, err := bufferkit.NewSolver(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSolveYieldNominalOnly(t *testing.T) {
	net := bufferkit.TwoPinNet(10000, 20, 12, 1000, bufferkit.PaperWire())
	s := yieldSolver(t)
	defer s.Close()
	run, err := s.Run(context.Background(), net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SolveYield(context.Background(), net)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 1 {
		t.Fatalf("nominal-only sweep has %d samples, want 1", len(res.Samples))
	}
	if res.Samples[0].Slack != run.Slack {
		t.Fatalf("nominal sweep slack %.17g != Run slack %.17g", res.Samples[0].Slack, run.Slack)
	}
	if res.Yield != 1 || res.OptimalYield != 1 {
		t.Fatalf("feasible nominal-only sweep yield %g/%g, want 1/1", res.Yield, res.OptimalYield)
	}
}

// TestSolveYieldDeterministic: the same seed must reproduce the whole
// result; a different seed must perturb it.
func TestSolveYieldDeterministic(t *testing.T) {
	net := bufferkit.RandomNet(bufferkit.NetOpts{Sinks: 10, Seed: 4})
	run := func(seed int64) *bufferkit.YieldResult {
		s := yieldSolver(t,
			bufferkit.WithSamples(40),
			bufferkit.WithSigma(0.1),
			bufferkit.WithVariationSeed(seed),
			bufferkit.WithRobustPlacement(true),
		)
		defer s.Close()
		res, err := s.SolveYield(context.Background(), net)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(9), run(9)
	if len(a.Samples) != 41 || len(b.Samples) != 41 {
		t.Fatalf("expected 41 samples (nominal + 40 MC), got %d and %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs across identical seeds", i)
		}
	}
	if a.Dist != b.Dist || a.Yield != b.Yield || a.Chosen != b.Chosen {
		t.Fatal("aggregate result differs across identical seeds")
	}
	c := run(10)
	diff := false
	for i := range a.Samples {
		if a.Samples[i].Slack != c.Samples[i].Slack {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different variation seeds produced identical sample slacks")
	}
}

// TestSolveYieldExplicitCorners: WithCorners adds the deterministic corner
// set after nominal, and the slow corner must not beat nominal slack.
func TestSolveYieldExplicitCorners(t *testing.T) {
	net := bufferkit.TwoPinNet(8000, 16, 10, 900, bufferkit.PaperWire())
	s := yieldSolver(t, bufferkit.WithCorners(bufferkit.ProcessCorners()[1:]))
	defer s.Close()
	res, err := s.SolveYield(context.Background(), net)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 5 {
		t.Fatalf("got %d samples, want 5 (nominal + 4 named corners)", len(res.Samples))
	}
	if res.Samples[0].Corner.Name != "nominal" {
		t.Fatalf("corner 0 is %q, want nominal", res.Samples[0].Corner.Name)
	}
	var nom, slow, fast float64
	for _, smp := range res.Samples {
		switch smp.Corner.Name {
		case "nominal":
			nom = smp.Slack
		case "slow":
			slow = smp.Slack
		case "fast":
			fast = smp.Slack
		}
	}
	if !(slow < nom && nom < fast) {
		t.Fatalf("corner ordering violated: slow %.4f, nominal %.4f, fast %.4f", slow, nom, fast)
	}
}

// TestSolveYieldRobustNeverWorse: the robust choice's fixed-placement
// yield must be at least the nominal placement's on the same corners.
func TestSolveYieldRobustNeverWorse(t *testing.T) {
	net := bufferkit.RandomNet(bufferkit.NetOpts{Sinks: 12, Seed: 21})
	for _, seed := range []int64{1, 2, 3} {
		opts := []bufferkit.Option{
			bufferkit.WithSamples(64),
			bufferkit.WithSigma(0.2),
			bufferkit.WithVariationSeed(seed),
			bufferkit.WithYieldTarget(-2000),
		}
		sn := yieldSolver(t, opts...)
		nominal, err := sn.SolveYield(context.Background(), net)
		sn.Close()
		if err != nil {
			t.Fatal(err)
		}
		sr := yieldSolver(t, append(opts, bufferkit.WithRobustPlacement(true))...)
		robust, err := sr.SolveYield(context.Background(), net)
		sr.Close()
		if err != nil {
			t.Fatal(err)
		}
		if robust.Yield < nominal.Yield {
			t.Fatalf("seed %d: robust yield %g < nominal yield %g", seed, robust.Yield, nominal.Yield)
		}
		if robust.Yield > robust.OptimalYield+1e-15 {
			t.Fatalf("seed %d: robust yield %g exceeds optimal yield %g", seed, robust.Yield, robust.OptimalYield)
		}
	}
}

func TestSolveYieldOptionValidation(t *testing.T) {
	lib := bufferkit.GenerateLibrary(4)
	if _, err := bufferkit.NewSolver(bufferkit.WithLibrary(lib), bufferkit.WithSamples(-1)); err == nil {
		t.Fatal("negative sample count accepted")
	}
	if _, err := bufferkit.NewSolver(bufferkit.WithLibrary(lib), bufferkit.WithSigma(-0.1)); err == nil {
		t.Fatal("negative sigma accepted")
	}
	if _, err := bufferkit.NewSolver(bufferkit.WithLibrary(lib), bufferkit.WithSigma(0.9)); err == nil {
		t.Fatal("oversized sigma accepted")
	}

	// Yield analysis is a core-engine feature; other algorithms refuse.
	s, err := bufferkit.NewSolver(bufferkit.WithLibrary(lib), bufferkit.WithAlgorithm(bufferkit.AlgoLillis))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var verr *bufferkit.ValidationError
	net := bufferkit.TwoPinNet(4000, 8, 10, 800, bufferkit.PaperWire())
	if _, err := s.SolveYield(context.Background(), net); !errors.As(err, &verr) {
		t.Fatalf("lillis SolveYield: got %v, want ValidationError", err)
	}

	// A malformed explicit corner is rejected before any engine run.
	bad := yieldSolver(t, bufferkit.WithCorners([]bufferkit.Corner{{Name: "bad"}}))
	defer bad.Close()
	if _, err := bad.SolveYield(context.Background(), net); !errors.As(err, &verr) {
		t.Fatalf("bad corner: got %v, want ValidationError", err)
	}
}

// TestSolveYieldCancellation: cancellation mid-sweep surfaces as a
// *PartialSweepError wrapping ErrCanceled.
func TestSolveYieldCancellation(t *testing.T) {
	net := bufferkit.RandomNet(bufferkit.NetOpts{Sinks: 40, Seed: 2})
	s := yieldSolver(t, bufferkit.WithSamples(128), bufferkit.WithSigma(0.05))
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.SolveYield(ctx, net)
	var perr *bufferkit.PartialSweepError
	if !errors.As(err, &perr) {
		t.Fatalf("got %v, want *PartialSweepError", err)
	}
	if !errors.Is(err, bufferkit.ErrCanceled) {
		t.Fatalf("error does not wrap ErrCanceled: %v", err)
	}
	if perr.Total != 129 {
		t.Fatalf("partial error total %d, want 129", perr.Total)
	}
}
