package lillis

import (
	"strings"
	"testing"

	"bufferkit/internal/bruteforce"
	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/netgen"
	"bufferkit/internal/segment"
	"bufferkit/internal/testutil"
	"bufferkit/internal/tree"
	"bufferkit/internal/vanginneken"
)

func smallLib() library.Library {
	return library.Library{
		{Name: "weak", R: 2.0, Cin: 0.8, K: 8},
		{Name: "mid", R: 0.9, Cin: 2.0, K: 10},
		{Name: "strong", R: 0.4, Cin: 5.0, K: 12},
	}
}

func TestMatchesBruteForceOnRandomSmallNets(t *testing.T) {
	lib := smallLib()
	drv := delay.Driver{R: 0.4, K: 3}
	for seed := int64(0); seed < 50; seed++ {
		tr := netgen.RandomSmall(seed, 5, 0)
		want, err := bruteforce.Best(tr, lib, drv)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Insert(tr, lib, drv)
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.AlmostEqual(got.Slack, want.Slack) {
			t.Fatalf("seed %d: lillis %.12g, brute force %.12g", seed, got.Slack, want.Slack)
		}
		testutil.CheckPlacement(t, tr, lib, got.Placement, drv, got.Slack, "lillis random")
	}
}

func TestMatchesVanGinnekenWithOneType(t *testing.T) {
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
		ll, err := Insert(tr, library.Library{buf}, drv)
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.AlmostEqual(vg.Slack, ll.Slack) {
			t.Fatalf("seed %d: vg %.12g vs lillis %.12g", seed, vg.Slack, ll.Slack)
		}
	}
}

func TestRespectsAllowedRestrictions(t *testing.T) {
	lib := smallLib()
	b := tree.NewBuilder()
	v := b.AddBufferPosRestricted(0, 0.5, 30, []int{0}) // only the weak type
	b.AddSink(v, 0.5, 30, 10, 1000)
	tr := b.MustBuild()
	drv := delay.Driver{R: 1.5}

	res, err := Insert(tr, lib, drv)
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
}

func TestMoreTypesNeverHurt(t *testing.T) {
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
			res, err := Insert(tr, lib[:b], drv)
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

func TestStatsAreCoherent(t *testing.T) {
	lib := library.Generate(8)
	tr := netgen.TwoPin(10000, 50, 10, 1000, netgen.PaperWire())
	res, err := Insert(tr, lib, delay.Driver{R: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Positions != 50 {
		t.Fatalf("Positions = %d, want 50", res.Stats.Positions)
	}
	if res.Stats.MaxListLen < 1 || res.Stats.SumListLen < res.Stats.Positions {
		t.Fatalf("implausible stats: %+v", res.Stats)
	}
	if res.Stats.BetasInserted < 1 {
		t.Fatal("no buffered candidates ever survived")
	}
	// b·n+1 bound from the paper's preliminaries.
	if bound := len(lib)*tr.NumBufferPositions() + 1; res.Stats.MaxListLen > bound {
		t.Fatalf("MaxListLen %d exceeds bn+1 = %d", res.Stats.MaxListLen, bound)
	}
	testutil.CheckPlacement(t, tr, lib, res.Placement, delay.Driver{R: 0.2}, res.Slack, "lillis stats")
}

func TestRejectsInverters(t *testing.T) {
	tr := netgen.TwoPin(100, 1, 1, 0, netgen.PaperWire())
	lib := library.GenerateWithInverters(4)
	if _, err := Insert(tr, lib, delay.Driver{}); err == nil || !strings.Contains(err.Error(), "inverting") {
		t.Fatalf("err = %v", err)
	}
}

func TestRejectsNegativeSinks(t *testing.T) {
	b := tree.NewBuilder()
	v := b.AddBufferPos(0, 1, 1)
	b.AddSinkPol(v, 1, 1, 2, 100, tree.Negative)
	tr := b.MustBuild()
	if _, err := Insert(tr, smallLib(), delay.Driver{}); err == nil || !strings.Contains(err.Error(), "polarity") {
		t.Fatalf("err = %v", err)
	}
}

func TestRejectsInvalidLibrary(t *testing.T) {
	tr := netgen.TwoPin(100, 1, 1, 0, netgen.PaperWire())
	if _, err := Insert(tr, library.Library{}, delay.Driver{}); err == nil {
		t.Fatal("accepted empty library")
	}
}

// TestWarmEngineMatchesAndDoesNotAllocate mirrors the core engine's reuse
// contract on the baseline: a warm engine re-running the same instance
// produces identical results with zero steady-state allocations, so
// benchmark comparisons between the algorithms are apples-to-apples.
func TestWarmEngineMatchesAndDoesNotAllocate(t *testing.T) {
	lib := library.Generate(8)
	tr := netgen.TwoPin(8000, 40, 10, 1000, netgen.PaperWire())
	drv := delay.Driver{R: 0.2, K: 15}

	cold, err := Insert(tr, lib, drv)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	res := &Result{}
	if err := eng.Run(tr, lib, drv, res); err != nil {
		t.Fatal(err)
	}
	if res.Slack != cold.Slack {
		t.Fatalf("warm %v != cold %v", res.Slack, cold.Slack)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := eng.Run(tr, lib, drv, res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("warm lillis run allocates %.1f objects per run, want 0", allocs)
	}
	if res.Slack != cold.Slack {
		t.Fatalf("warm runs diverged: %v != %v", res.Slack, cold.Slack)
	}
}
