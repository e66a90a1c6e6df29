package core

import (
	"testing"

	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/netgen"
	"bufferkit/internal/segment"
	"bufferkit/internal/testutil"
	"bufferkit/internal/tree"
)

// TestEngineInvariantsAcrossInstances runs the engine with every candidate
// list validated after every operation across topologies, polarities and
// restricted positions, and checks each result against the Elmore oracle:
// the reported placement must reproduce the reported slack, and the
// instrumentation counters must actually be exercised.
func TestEngineInvariantsAcrossInstances(t *testing.T) {
	drv := delay.Driver{R: 0.3, K: 5}
	type instance struct {
		name string
		tr   *tree.Tree
		lib  library.Library
	}
	var instances []instance
	for seed := int64(0); seed < 10; seed++ {
		base := netgen.Random(netgen.Opts{Sinks: 10, Seed: seed})
		tr, err := segment.Uniform(base, 3)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, instance{"random", tr, library.Generate(8)})
	}
	instances = append(instances,
		instance{"twopin", netgen.TwoPin(10000, 60, 15, 1200, netgen.PaperWire()), library.Generate(16)},
		instance{"bushy", netgen.Balanced(3, 4, 400, 8, 900, netgen.PaperWire()), library.Generate(8)},
	)
	for seed := int64(0); seed < 20; seed++ {
		instances = append(instances,
			instance{"polar", netgen.RandomSmall(seed, 5, 0.5), library.GenerateWithInverters(3)})
	}
	restricted := netgen.RandomSmall(3, 5, 0).Clone()
	for i, v := range restricted.BufferPositions() {
		if i%2 == 0 {
			restricted.Verts[v].Allowed = []int{i % 3, 2}
		}
	}
	instances = append(instances, instance{"restricted", restricted, library.Generate(3)})

	var total Stats
	for _, inst := range instances {
		exact, err := Insert(inst.tr, inst.lib, Options{Driver: drv, CheckInvariants: true})
		if err != nil {
			continue // infeasible polarity instance
		}
		testutil.CheckPlacement(t, inst.tr, inst.lib, exact.Placement, drv, exact.Slack, inst.name)
		total.MaxListLen = max(total.MaxListLen, exact.Stats.MaxListLen)
		total.HullPruned += exact.Stats.HullPruned
		total.BetasGenerated += exact.Stats.BetasGenerated
		total.BetasKept += exact.Stats.BetasKept
	}
	if total.MaxListLen == 0 || total.HullPruned == 0 || total.BetasGenerated == 0 || total.BetasKept == 0 {
		t.Fatalf("check is vacuous — counters not exercised: %+v", total)
	}
}

// TestWarmEngineZeroAllocs asserts the acceptance criterion: a warm engine
// re-running the dynamic program performs zero steady-state heap
// allocations.
func TestWarmEngineZeroAllocs(t *testing.T) {
	lib := library.Generate(8)
	tr := netgen.TwoPin(8000, 40, 12, 1000, netgen.PaperWire())
	eng := NewEngine()
	if err := eng.Reset(tr, lib, Options{Driver: delay.Driver{R: 0.25}}); err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	if err := eng.Run(res); err != nil { // warm the arena slabs
		t.Fatal(err)
	}
	want := res.Slack
	allocs := testing.AllocsPerRun(50, func() {
		if err := eng.Run(res); err != nil {
			t.Fatal(err)
		}
		if res.Slack != want {
			t.Fatalf("warm run diverged: %g != %g", res.Slack, want)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm Run allocates %.1f times per run, want 0", allocs)
	}
}
