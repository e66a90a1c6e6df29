package costopt

import (
	"strings"
	"testing"

	"bufferkit/internal/bruteforce"
	"bufferkit/internal/core"
	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/netgen"
	"bufferkit/internal/testutil"
	"bufferkit/internal/tree"
)

func costLib() library.Library {
	return library.Library{
		{Name: "weak", R: 2.0, Cin: 0.8, K: 8, Cost: 1},
		{Name: "mid", R: 0.9, Cin: 2.0, K: 10, Cost: 3},
		{Name: "strong", R: 0.4, Cin: 5.0, K: 12, Cost: 7},
	}
}

func checkFrontier(t *testing.T, pts []Point, tr *tree.Tree, lib library.Library, drv delay.Driver, what string) {
	t.Helper()
	for i, p := range pts {
		if i > 0 {
			if p.Cost <= pts[i-1].Cost || p.Slack <= pts[i-1].Slack {
				t.Fatalf("%s: frontier not strictly increasing at %d: %+v", what, i, pts)
			}
		}
		r, err := delay.Evaluate(tr, lib, p.Placement, drv)
		if err != nil {
			t.Fatalf("%s: witness: %v", what, err)
		}
		if !testutil.AlmostEqual(r.Slack, p.Slack) {
			t.Fatalf("%s: witness slack %.12g != claimed %.12g", what, r.Slack, p.Slack)
		}
		if got := p.Placement.Cost(lib); got != p.Cost {
			t.Fatalf("%s: witness cost %d != claimed %d", what, got, p.Cost)
		}
	}
}

// TestMatchesBruteForceParetoOnRandomSmallNets holds the pruned DP,
// cross-level pruning included, to the exhaustive frontier.
func TestMatchesBruteForceParetoOnRandomSmallNets(t *testing.T) {
	lib := costLib()
	for _, drv := range []delay.Driver{{R: 0.4, K: 3}, {R: 0.5}} {
		for seed := int64(0); seed < 40; seed++ {
			tr := netgen.RandomSmall(seed, 4, 0)
			want, err := bruteforce.Pareto(tr, lib, drv)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Pareto(tr, lib, Options{Driver: drv})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("driver %+v seed %d: frontier sizes %d vs %d\ngot %+v\nwant %+v", drv, seed, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i].Cost != want[i].Cost || !testutil.AlmostEqual(got[i].Slack, want[i].Slack) {
					t.Fatalf("driver %+v seed %d point %d: got (%d, %.12g), want (%d, %.12g)",
						drv, seed, i, got[i].Cost, got[i].Slack, want[i].Cost, want[i].Slack)
				}
			}
			checkFrontier(t, got, tr, lib, drv, "pareto")
		}
	}
}

func TestMaxSlackPointMatchesCore(t *testing.T) {
	// The most expensive frontier point is the unconstrained optimum.
	lib := costLib()
	drv := delay.Driver{R: 0.3, K: 2}
	for seed := int64(0); seed < 20; seed++ {
		tr := netgen.RandomSmall(seed, 5, 0)
		pts, err := Pareto(tr, lib, Options{Driver: drv})
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) == 0 {
			t.Fatal("empty frontier")
		}
		opt, err := core.Insert(tr, lib, core.Options{Driver: drv})
		if err != nil {
			t.Fatal(err)
		}
		last := pts[len(pts)-1]
		if !testutil.AlmostEqual(last.Slack, opt.Slack) {
			t.Fatalf("seed %d: frontier max %.12g, core optimum %.12g", seed, last.Slack, opt.Slack)
		}
	}
}

func TestMaxCostCapsFrontier(t *testing.T) {
	lib := costLib()
	drv := delay.Driver{R: 0.6}
	tr := netgen.TwoPin(12000, 8, 20, 1000, netgen.PaperWire())
	full, err := Pareto(tr, lib, Options{Driver: drv})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 3 {
		t.Fatalf("test net too easy: frontier %+v", full)
	}
	cap := full[1].Cost
	capped, err := Pareto(tr, lib, Options{Driver: drv, MaxCost: cap})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range capped {
		if p.Cost > cap {
			t.Fatalf("point above cap: %+v", p)
		}
	}
	last := capped[len(capped)-1]
	if last.Cost != full[1].Cost || !testutil.AlmostEqual(last.Slack, full[1].Slack) {
		t.Fatalf("capped frontier end (%d, %g), want (%d, %g)", last.Cost, last.Slack, full[1].Cost, full[1].Slack)
	}
	checkFrontier(t, capped, tr, lib, drv, "capped")
}

func TestZeroCostLibraryCollapsesToOnePoint(t *testing.T) {
	lib := library.Library{
		{Name: "free1", R: 1, Cin: 1, K: 5, Cost: 0},
		{Name: "free2", R: 0.5, Cin: 2, K: 6, Cost: 0},
	}
	tr := netgen.TwoPin(8000, 6, 10, 500, netgen.PaperWire())
	pts, err := Pareto(tr, lib, Options{Driver: delay.Driver{R: 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Cost != 0 {
		t.Fatalf("zero-cost frontier: %+v", pts)
	}
	opt, err := core.Insert(tr, lib, core.Options{Driver: delay.Driver{R: 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(pts[0].Slack, opt.Slack) {
		t.Fatalf("zero-cost slack %.12g != optimum %.12g", pts[0].Slack, opt.Slack)
	}
}

func TestFrontierFirstPointIsUnbuffered(t *testing.T) {
	lib := costLib()
	tr := netgen.TwoPin(5000, 4, 10, 500, netgen.PaperWire())
	drv := delay.Driver{R: 0.4}
	pts, err := Pareto(tr, lib, Options{Driver: drv})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Cost != 0 || pts[0].Placement.Count() != 0 {
		t.Fatalf("first point should be the unbuffered solution: %+v", pts[0])
	}
	unbuf, err := delay.Evaluate(tr, lib, delay.NewPlacement(tr.Len()), drv)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(pts[0].Slack, unbuf.Slack) {
		t.Fatalf("unbuffered slack %.12g vs %.12g", pts[0].Slack, unbuf.Slack)
	}
}

func TestRespectsAllowedAndRejectsInverters(t *testing.T) {
	lib := costLib()
	b := tree.NewBuilder()
	v := b.AddBufferPosRestricted(0, 0.5, 30, []int{0})
	b.AddSink(v, 0.5, 30, 10, 1000)
	tr := b.MustBuild()
	pts, err := Pareto(tr, lib, Options{Driver: delay.Driver{R: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Placement[v] > 0 {
			t.Fatalf("used disallowed type %d", p.Placement[v])
		}
	}

	if _, err := Pareto(tr, library.GenerateWithInverters(4), Options{}); err == nil || !strings.Contains(err.Error(), "inverting") {
		t.Fatalf("err = %v", err)
	}
}
