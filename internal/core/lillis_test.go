package core

import (
	"errors"
	"testing"

	"bufferkit/internal/bruteforce"
	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/netgen"
	"bufferkit/internal/segment"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/testutil"
	"bufferkit/internal/tree"
	"bufferkit/internal/vanginneken"
)

// The tests in this file hold the Lillis–Cheng–Lin baseline
// (Options.Lillis) to the same independent oracles as the paper's
// algorithm: brute force, van Ginneken at b = 1, and the Elmore evaluator.

func lillisOpts(drv delay.Driver) Options {
	return Options{Driver: drv, Lillis: true, CheckInvariants: true}
}

func TestLillisMatchesBruteForceOnRandomSmallNets(t *testing.T) {
	lib := smallLib()
	drv := delay.Driver{R: 0.4, K: 3}
	for seed := int64(0); seed < 50; seed++ {
		tr := netgen.RandomSmall(seed, 5, 0)
		want, err := bruteforce.Best(tr, lib, drv)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Insert(tr, lib, lillisOpts(drv))
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.AlmostEqual(got.Slack, want.Slack) {
			t.Fatalf("seed %d: lillis %.12g, brute force %.12g", seed, got.Slack, want.Slack)
		}
		testutil.CheckPlacement(t, tr, lib, got.Placement, drv, got.Slack, "lillis random")
	}
}

func TestLillisMatchesVanGinnekenWithOneType(t *testing.T) {
	buf := library.Buffer{Name: "b", R: 0.5, Cin: 1.5, K: 6}
	drv := delay.Driver{R: 0.3, K: 1}
	for seed := int64(0); seed < 20; seed++ {
		base := netgen.Random(netgen.Opts{Sinks: 8, Seed: seed})
		tr, err := segment.Uniform(base, 3)
		if err != nil {
			t.Fatal(err)
		}
		vg, err := vanginneken.Insert(tr, buf, drv)
		if err != nil {
			t.Fatal(err)
		}
		ll, err := Insert(tr, library.Library{buf}, lillisOpts(drv))
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.AlmostEqual(vg.Slack, ll.Slack) {
			t.Fatalf("seed %d: vg %.12g vs lillis %.12g", seed, vg.Slack, ll.Slack)
		}
	}
}

func TestLillisRespectsAllowedRestrictions(t *testing.T) {
	lib := smallLib()
	b := tree.NewBuilder()
	v := b.AddBufferPosRestricted(0, 0.5, 30, []int{0}) // only the weak type
	b.AddSink(v, 0.5, 30, 10, 1000)
	tr := b.MustBuild()
	drv := delay.Driver{R: 1.5}

	res, err := Insert(tr, lib, lillisOpts(drv))
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement[v] == 1 || res.Placement[v] == 2 {
		t.Fatalf("placed disallowed type %d", res.Placement[v])
	}
	want, err := bruteforce.Best(tr, lib, drv)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(res.Slack, want.Slack) {
		t.Fatalf("slack %.12g, brute force %.12g", res.Slack, want.Slack)
	}
	if res.Stats.BetasGenerated != 1 {
		t.Fatalf("BetasGenerated = %d, want 1 (one allowed type at one position)", res.Stats.BetasGenerated)
	}
}

func TestLillisMoreTypesNeverHurt(t *testing.T) {
	// Optimality implies monotonicity: adding types can only improve slack.
	drv := delay.Driver{R: 0.4}
	for seed := int64(0); seed < 10; seed++ {
		base := netgen.Random(netgen.Opts{Sinks: 6, Seed: seed})
		tr, err := segment.Uniform(base, 2)
		if err != nil {
			t.Fatal(err)
		}
		lib := library.Generate(8)
		prev := 0.0
		for _, b := range []int{1, 2, 4, 8} {
			res, err := Insert(tr, lib[:b], lillisOpts(drv))
			if err != nil {
				t.Fatal(err)
			}
			if b > 1 && res.Slack < prev-testutil.Tol {
				t.Fatalf("seed %d: slack fell from %.12g to %.12g when growing library to %d", seed, prev, res.Slack, b)
			}
			prev = res.Slack
		}
	}
}

// TestLillisStatsAreCoherent pins the Stats a Lillis run fills: the list
// counters as under the paper's algorithm, one generated beta per type and
// position, the accepted insertions as BetasKept, the arena counters, and
// zero for the hull fields it has no hull for.
func TestLillisStatsAreCoherent(t *testing.T) {
	lib := library.Generate(8)
	tr := netgen.TwoPin(10000, 50, 10, 1000, netgen.PaperWire())
	drv := delay.Driver{R: 0.2}
	res, err := Insert(tr, lib, Options{Driver: drv, Lillis: true})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Positions != 50 {
		t.Fatalf("Positions = %d, want 50", s.Positions)
	}
	if s.MaxListLen < 1 || s.SumListLen < s.Positions {
		t.Fatalf("implausible stats: %+v", s)
	}
	if s.BetasGenerated != len(lib)*s.Positions {
		t.Fatalf("BetasGenerated = %d, want b·positions = %d", s.BetasGenerated, len(lib)*s.Positions)
	}
	if s.BetasKept < 1 || s.BetasKept > s.BetasGenerated {
		t.Fatalf("beta accounting wrong: %+v", s)
	}
	// Every generated beta carries its decision record, and the sink has one.
	if s.Decisions < s.BetasGenerated+1 || s.ArenaBytes <= 0 {
		t.Fatalf("arena counters not filled: %+v", s)
	}
	if s.SumHullLen != 0 || s.HullPruned != 0 {
		t.Fatalf("hull counters set without a hull: %+v", s)
	}
	// b·n+1 bound from the paper's preliminaries.
	if bound := len(lib)*tr.NumBufferPositions() + 1; s.MaxListLen > bound {
		t.Fatalf("MaxListLen %d exceeds bn+1 = %d", s.MaxListLen, bound)
	}
	testutil.CheckPlacement(t, tr, lib, res.Placement, drv, res.Slack, "lillis stats")

	// The walk is shared: both algorithms visit the same positions.
	hull, err := Insert(tr, lib, Options{Driver: drv})
	if err != nil {
		t.Fatal(err)
	}
	if hull.Stats.Positions != s.Positions {
		t.Fatalf("Positions: lillis %d, new %d", s.Positions, hull.Stats.Positions)
	}
}

// lillisRejects asserts err is a *ValidationError from the Lillis baseline
// on field.
func lillisRejects(t *testing.T, err error, field string) *solvererr.ValidationError {
	t.Helper()
	var verr *solvererr.ValidationError
	if !errors.As(err, &verr) || verr.Op != "lillis" || verr.Field != field {
		t.Fatalf("err = %v, want a lillis ValidationError on %s", err, field)
	}
	return verr
}

func TestLillisRejectsInverters(t *testing.T) {
	tr := netgen.TwoPin(100, 1, 1, 0, netgen.PaperWire())
	lib := library.GenerateWithInverters(4)
	_, err := Insert(tr, lib, lillisOpts(delay.Driver{}))
	lillisRejects(t, err, "library")
}

func TestLillisRejectsNegativeSinks(t *testing.T) {
	b := tree.NewBuilder()
	v := b.AddBufferPos(0, 1, 1)
	s := b.AddSinkPol(v, 1, 1, 2, 100, tree.Negative)
	tr := b.MustBuild()
	_, err := Insert(tr, smallLib(), lillisOpts(delay.Driver{}))
	if verr := lillisRejects(t, err, "polarity"); verr.Vertex != s {
		t.Fatalf("rejected vertex %d, want sink %d", verr.Vertex, s)
	}
}

func TestLillisRejectsInvalidLibrary(t *testing.T) {
	tr := netgen.TwoPin(100, 1, 1, 0, netgen.PaperWire())
	if _, err := Insert(tr, library.Library{}, lillisOpts(delay.Driver{})); err == nil {
		t.Fatal("accepted empty library")
	}
}

// TestLillisWarmEngineMatchesAndDoesNotAllocate holds the baseline to the
// engine's reuse contract: a warm engine re-running the same instance
// produces identical results with zero steady-state allocations, so
// benchmark comparisons between the algorithms are apples-to-apples.
func TestLillisWarmEngineMatchesAndDoesNotAllocate(t *testing.T) {
	lib := library.Generate(8)
	tr := netgen.TwoPin(8000, 40, 10, 1000, netgen.PaperWire())
	opt := Options{Driver: delay.Driver{R: 0.2, K: 15}, Lillis: true}

	cold, err := Insert(tr, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	if err := eng.Reset(tr, lib, opt); err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	if err := eng.Run(res); err != nil {
		t.Fatal(err)
	}
	if res.Slack != cold.Slack {
		t.Fatalf("warm %v != cold %v", res.Slack, cold.Slack)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := eng.Run(res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm lillis run allocates %.1f objects per run, want 0", allocs)
	}
	if res.Slack != cold.Slack {
		t.Fatalf("warm runs diverged: %v != %v", res.Slack, cold.Slack)
	}
}
