package core

import (
	"strings"
	"testing"

	"bufferkit/internal/bruteforce"
	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/lillis"
	"bufferkit/internal/netgen"
	"bufferkit/internal/segment"
	"bufferkit/internal/testutil"
	"bufferkit/internal/tree"
	"bufferkit/internal/vanginneken"
)

func smallLib() library.Library {
	return library.Library{
		{Name: "weak", R: 2.0, Cin: 0.8, K: 8, Cost: 1},
		{Name: "mid", R: 0.9, Cin: 2.0, K: 10, Cost: 2},
		{Name: "strong", R: 0.4, Cin: 5.0, K: 12, Cost: 4},
	}
}

func TestMatchesBruteForceOnRandomSmallNets(t *testing.T) {
	lib := smallLib()
	drv := delay.Driver{R: 0.4, K: 3}
	for seed := int64(0); seed < 60; seed++ {
		tr := netgen.RandomSmall(seed, 5, 0)
		want, err := bruteforce.Best(tr, lib, drv)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Insert(tr, lib, Options{Driver: drv, CheckInvariants: true})
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.AlmostEqual(got.Slack, want.Slack) {
			t.Fatalf("seed %d: core %.12g, brute force %.12g", seed, got.Slack, want.Slack)
		}
		testutil.CheckPlacement(t, tr, lib, got.Placement, drv, got.Slack, "core random")
	}
}

func TestMatchesBruteForceWithRestrictedPositions(t *testing.T) {
	lib := smallLib()
	drv := delay.Driver{R: 0.5}
	for seed := int64(0); seed < 30; seed++ {
		tr := netgen.RandomSmall(seed, 5, 0).Clone()
		// Restrict every other buffer position to a subset of types.
		for i, v := range tr.BufferPositions() {
			if i%2 == 0 {
				tr.Verts[v].Allowed = []int{int(seed+int64(i)) % 3, 2}
			}
		}
		want, err := bruteforce.Best(tr, lib, drv)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Insert(tr, lib, Options{Driver: drv, CheckInvariants: true})
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.AlmostEqual(got.Slack, want.Slack) {
			t.Fatalf("seed %d: core %.12g, brute force %.12g", seed, got.Slack, want.Slack)
		}
		testutil.CheckPlacement(t, tr, lib, got.Placement, drv, got.Slack, "core restricted")
	}
}

// TestMatchesLillisOnMediumNets is the headline equivalence: the O(bn²)
// algorithm and the O(b²n²) baseline are both exact, so they must agree on
// every instance, across library sizes and topologies.
func TestMatchesLillisOnMediumNets(t *testing.T) {
	drv := delay.Driver{R: 0.3, K: 5}
	for _, b := range []int{1, 2, 4, 8, 16} {
		lib := library.Generate(b)
		for seed := int64(0); seed < 8; seed++ {
			base := netgen.Random(netgen.Opts{Sinks: 12, Seed: seed})
			tr, err := segment.Uniform(base, 4)
			if err != nil {
				t.Fatal(err)
			}
			ll, err := lillis.Insert(tr, lib, drv)
			if err != nil {
				t.Fatal(err)
			}
			co, err := Insert(tr, lib, Options{Driver: drv, CheckInvariants: true})
			if err != nil {
				t.Fatal(err)
			}
			if !testutil.AlmostEqual(ll.Slack, co.Slack) {
				t.Fatalf("b=%d seed=%d: lillis %.12g vs core %.12g", b, seed, ll.Slack, co.Slack)
			}
			testutil.CheckPlacement(t, tr, lib, co.Placement, drv, co.Slack, "core medium")
		}
	}
}

func TestMatchesVanGinnekenOnSingleType(t *testing.T) {
	buf := library.Buffer{Name: "b", R: 0.5, Cin: 1.5, K: 6}
	drv := delay.Driver{R: 0.2}
	for seed := int64(0); seed < 10; seed++ {
		base := netgen.Random(netgen.Opts{Sinks: 10, Seed: seed})
		tr, err := segment.Uniform(base, 3)
		if err != nil {
			t.Fatal(err)
		}
		vg, err := vanginneken.Insert(tr, buf, drv)
		if err != nil {
			t.Fatal(err)
		}
		co, err := Insert(tr, library.Library{buf}, Options{Driver: drv})
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.AlmostEqual(vg.Slack, co.Slack) {
			t.Fatalf("seed %d: vg %.12g vs core %.12g", seed, vg.Slack, co.Slack)
		}
	}
}

func TestPolarityMatchesBruteForce(t *testing.T) {
	lib := library.Library{
		{Name: "buf", R: 0.9, Cin: 1.5, K: 9},
		{Name: "inv", R: 0.7, Cin: 1.2, K: 7, Inverting: true},
	}
	drv := delay.Driver{R: 0.4}
	checked := 0
	for seed := int64(0); seed < 60; seed++ {
		tr := netgen.RandomSmall(seed, 5, 0.5)
		want, err := bruteforce.Best(tr, lib, drv)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Insert(tr, lib, Options{Driver: drv, CheckInvariants: true})
		if !want.Feasible {
			if err == nil {
				t.Fatalf("seed %d: brute force says infeasible, core returned %g", seed, got.Slack)
			}
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v (brute force found %g)", seed, err, want.Slack)
		}
		if !testutil.AlmostEqual(got.Slack, want.Slack) {
			t.Fatalf("seed %d: core %.12g, brute force %.12g", seed, got.Slack, want.Slack)
		}
		testutil.CheckPlacement(t, tr, lib, got.Placement, drv, got.Slack, "core polarity")
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d feasible polarity instances exercised", checked)
	}
}

func TestNegativeSinkWithoutInvertersFails(t *testing.T) {
	b := tree.NewBuilder()
	v := b.AddBufferPos(0, 1, 1)
	b.AddSinkPol(v, 1, 1, 2, 100, tree.Negative)
	tr := b.MustBuild()
	if _, err := Insert(tr, smallLib(), Options{}); err == nil || !strings.Contains(err.Error(), "no inverters") {
		t.Fatalf("err = %v", err)
	}
}

func TestNegativeSinkWithNoPositionsInfeasible(t *testing.T) {
	b := tree.NewBuilder()
	v := b.AddInternal(0, 1, 1)
	b.AddSinkPol(v, 1, 1, 2, 100, tree.Negative)
	b.AddSink(v, 1, 1, 2, 100)
	tr := b.MustBuild()
	lib := library.GenerateWithInverters(4)
	if _, err := Insert(tr, lib, Options{}); err == nil || !strings.Contains(err.Error(), "feasible") {
		t.Fatalf("err = %v", err)
	}
}

func TestInverterPairRecoversPolarity(t *testing.T) {
	// A chain with two buffer positions and a positive sink: the optimum may
	// use zero or two inverters, never one.
	lib := library.Library{{Name: "inv", R: 0.5, Cin: 1, K: 5, Inverting: true}}
	tr := netgen.TwoPin(6000, 6, 10, 1000, netgen.PaperWire())
	res, err := Insert(tr, lib, Options{Driver: delay.Driver{R: 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.Count()%2 != 0 {
		t.Fatalf("odd number of inverters (%d) on a positive sink", res.Placement.Count())
	}
	testutil.CheckPlacement(t, tr, lib, res.Placement, delay.Driver{R: 0.6}, res.Slack, "inverter pair")
}

func TestStatsCoherent(t *testing.T) {
	lib := library.Generate(16)
	tr := netgen.TwoPin(10000, 60, 15, 1200, netgen.PaperWire())
	res, err := Insert(tr, lib, Options{Driver: delay.Driver{R: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Positions != 60 {
		t.Fatalf("Positions = %d, want 60", s.Positions)
	}
	if s.SumHullLen > s.SumListLen {
		t.Fatalf("hull larger than list: %+v", s)
	}
	if s.BetasGenerated > s.Positions*len(lib) {
		t.Fatalf("more betas than b per position: %+v", s)
	}
	if s.BetasKept > s.BetasGenerated || s.BetasKept == 0 {
		t.Fatalf("beta accounting wrong: %+v", s)
	}
	if s.MaxListLen > len(lib)*tr.NumBufferPositions()+1 {
		t.Fatalf("MaxListLen %d exceeds bn+1", s.MaxListLen)
	}
}

func TestDeepChainStability(t *testing.T) {
	// 5000 buffer positions on one wire: exercises allocation, pruning and
	// reconstruction depth in one go.
	lib := library.Generate(4)
	tr := netgen.TwoPin(50000, 5000, 20, 0, netgen.PaperWire())
	drv := delay.Driver{R: 0.5}
	res, err := Insert(tr, lib, Options{Driver: drv})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.Count() < 10 {
		t.Fatalf("suspiciously few buffers (%d) on a 5 cm line", res.Placement.Count())
	}
	testutil.CheckPlacement(t, tr, lib, res.Placement, drv, res.Slack, "deep chain")
}

func TestRejectsInvalidLibrary(t *testing.T) {
	tr := netgen.TwoPin(100, 1, 1, 0, netgen.PaperWire())
	if _, err := Insert(tr, library.Library{}, Options{}); err == nil {
		t.Fatal("accepted empty library")
	}
}
