package bufferkit_test

import (
	"context"
	"errors"
	"testing"

	"bufferkit"
)

func chipSolver(t *testing.T, opts ...bufferkit.Option) *bufferkit.Solver {
	t.Helper()
	base := []bufferkit.Option{bufferkit.WithLibrary(bufferkit.GenerateLibrary(8))}
	s, err := bufferkit.NewSolver(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSolveChipSingleNetMatchesRun: one net under unbounded site capacity
// must reproduce Solver.Run bit for bit.
func TestSolveChipSingleNetMatchesRun(t *testing.T) {
	inst := bufferkit.GenerateChip(bufferkit.ChipGenOpts{
		W: 10, H: 10, Nets: 1, Capacity: 1 << 20, Contention: 0, Seed: 17,
	})
	net := &inst.Nets[0]
	s := chipSolver(t, bufferkit.WithDriver(net.Driver))
	res, err := s.SolveChip(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Run(context.Background(), net.Tree)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if !res.Feasible || len(res.Rounds) != 1 {
		t.Fatalf("unconstrained single net took %d rounds (feasible=%v)",
			len(res.Rounds), res.Feasible)
	}
	for v := range want.Placement {
		if res.Placements[0][v] != want.Placement[v] {
			t.Fatalf("placement differs at vertex %d: %d vs %d",
				v, res.Placements[0][v], want.Placement[v])
		}
	}
	ev, err := bufferkit.Evaluate(net.Tree, bufferkit.GenerateLibrary(8), want.Placement, net.Driver)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slacks[0] != ev.Slack {
		t.Fatalf("chip slack %.17g != evaluated Run slack %.17g", res.Slacks[0], ev.Slack)
	}
}

// TestSolveChipZeroCapacityInfeasible: a net that needs a buffer whose only
// site is blocked fails with the typed infeasibility error.
func TestSolveChipZeroCapacityInfeasible(t *testing.T) {
	b := bufferkit.NewTreeBuilder()
	pos := b.AddBufferPos(0, 0.3, 40)
	b.AddSinkPol(pos, 0.2, 30, 10, 500, bufferkit.Negative)
	inst := &bufferkit.ChipInstance{
		Grid: bufferkit.ChipGrid{W: 1, H: 1, Capacity: 0},
		Nets: []bufferkit.ChipNet{{Name: "needs_inv", Tree: b.MustBuild(), Site: []int{bufferkit.NoSite, 0, bufferkit.NoSite}}},
	}
	s := chipSolver(t, bufferkit.WithLibrary(bufferkit.GenerateLibraryWithInverters(4)))
	defer s.Close()
	_, err := s.SolveChip(context.Background(), inst)
	if !errors.Is(err, bufferkit.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

// TestSolveChipContended: the facade end-to-end on a contended instance,
// with the progress callback observing every round.
func TestSolveChipContended(t *testing.T) {
	inst := bufferkit.GenerateChip(bufferkit.ChipGenOpts{
		W: 12, H: 12, Nets: 120, Capacity: 2, Contention: 0.7, Seed: 5,
	})
	var rounds []bufferkit.ChipRound
	s := chipSolver(t,
		bufferkit.WithChipRounds(40),
		bufferkit.WithChipProgress(func(r bufferkit.ChipRound) { rounds = append(rounds, r) }),
	)
	defer s.Close()
	res, err := s.SolveChip(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("result not feasible")
	}
	if len(rounds) != len(res.Rounds) {
		t.Fatalf("progress callback saw %d rounds, result has %d", len(rounds), len(res.Rounds))
	}
	if rounds[0].Overflow == 0 {
		t.Fatal("instance not contended")
	}
}

// TestSolveChipRejectsNonCoreAlgorithm: chip solving is a core-engine
// surface; other registry entries are rejected with a validation error.
func TestSolveChipRejectsNonCoreAlgorithm(t *testing.T) {
	inst := bufferkit.GenerateChip(bufferkit.ChipGenOpts{W: 6, H: 6, Nets: 2, Seed: 1})
	s := chipSolver(t, bufferkit.WithAlgorithm(bufferkit.AlgoLillis))
	defer s.Close()
	var verr *bufferkit.ValidationError
	if _, err := s.SolveChip(context.Background(), inst); !errors.As(err, &verr) {
		t.Fatalf("want *ValidationError, got %v", err)
	}
}
