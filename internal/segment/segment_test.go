package segment_test

import (
	"math"
	"testing"
	"testing/quick"

	"bufferkit/internal/core"
	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/netgen"
	"bufferkit/internal/segment"
	"bufferkit/internal/tree"
)

func yNet(t *testing.T) *tree.Tree {
	t.Helper()
	b := tree.NewBuilder()
	v := b.AddBufferPos(0, 1.0, 10)
	b.AddSink(v, 2.0, 20, 5, 1000)
	b.AddSinkPol(v, 3.0, 30, 7, 900, tree.Negative)
	return b.MustBuild()
}

func TestUniformPreservesTotalsAndKinds(t *testing.T) {
	tr := yNet(t)
	for _, k := range []int{1, 2, 5} {
		seg, err := segment.Uniform(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.Validate(); err != nil {
			t.Fatal(err)
		}
		if seg.NumSinks() != tr.NumSinks() {
			t.Fatalf("k=%d: sinks %d != %d", k, seg.NumSinks(), tr.NumSinks())
		}
		wantPos := tr.NumBufferPositions() + (k-1)*(tr.Len()-1)
		if got := seg.NumBufferPositions(); got != wantPos {
			t.Fatalf("k=%d: positions %d, want %d", k, got, wantPos)
		}
		if math.Abs(seg.TotalWireCap()-tr.TotalWireCap()) > 1e-9 {
			t.Fatalf("k=%d: wire cap changed: %g vs %g", k, seg.TotalWireCap(), tr.TotalWireCap())
		}
		totalR := func(tt *tree.Tree) float64 {
			s := 0.0
			for i := range tt.Verts {
				s += tt.Verts[i].EdgeR
			}
			return s
		}
		if math.Abs(totalR(seg)-totalR(tr)) > 1e-9 {
			t.Fatalf("k=%d: wire resistance changed", k)
		}
		// Sink parameters survive.
		var negSeen bool
		for _, s := range seg.Sinks() {
			if seg.Verts[s].Pol == tree.Negative {
				negSeen = true
				if seg.Verts[s].Cap != 7 || seg.Verts[s].RAT != 900 {
					t.Fatalf("negative sink parameters lost: %+v", seg.Verts[s])
				}
			}
		}
		if !negSeen {
			t.Fatal("negative sink lost")
		}
	}
}

func TestUniformK1IsIdentityShape(t *testing.T) {
	tr := yNet(t)
	seg, err := segment.Uniform(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Len() != tr.Len() {
		t.Fatalf("k=1 changed vertex count: %d vs %d", seg.Len(), tr.Len())
	}
}

func TestSplitPreservesRestrictions(t *testing.T) {
	b := tree.NewBuilder()
	v := b.AddBufferPosRestricted(0, 1, 1, []int{2})
	b.AddSink(v, 1, 1, 2, 100)
	tr := b.MustBuild()
	seg, err := segment.Uniform(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range seg.Verts {
		if a := seg.Verts[i].Allowed; len(a) == 1 && a[0] == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("Allowed restriction lost in split")
	}
}

func TestToPositionsHitsTarget(t *testing.T) {
	base := netgen.Random(netgen.Opts{Sinks: 20, Seed: 1})
	for _, target := range []int{50, 200, 1000, 5000} {
		seg, err := segment.ToPositions(base, target)
		if err != nil {
			t.Fatal(err)
		}
		got := seg.NumBufferPositions()
		if got != target {
			t.Fatalf("target %d: got %d positions", target, got)
		}
		if err := seg.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestToPositionsBelowExistingIsClone(t *testing.T) {
	base := netgen.Random(netgen.Opts{Sinks: 20, Seed: 2})
	seg, err := segment.ToPositions(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumBufferPositions() != base.NumBufferPositions() {
		t.Fatal("ToPositions below existing count must not remove positions")
	}
}

// TestSegmentingPreservesUnbufferedTiming: splitting a wire into equal
// segments preserves the Elmore delay of the unbuffered net exactly
// (lumped L-segments in series reproduce the same sums).
func TestSegmentingPreservesUnbufferedTiming(t *testing.T) {
	lib := library.Generate(2)
	for seed := int64(0); seed < 10; seed++ {
		base := netgen.Random(netgen.Opts{Sinks: 5, Seed: seed})
		r0, err := delay.Evaluate(base, lib, delay.NewPlacement(base.Len()), delay.Driver{R: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		seg, err := segment.Uniform(base, 4)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := delay.Evaluate(seg, lib, delay.NewPlacement(seg.Len()), delay.Driver{R: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		// Under the half-capacitance convention D = R(C/2 + Cdown), a
		// uniform k-way split of a lumped wire reproduces the original
		// Elmore delay exactly: Σᵢ (R/k)(C/2k + (k−i)C/k + L) = RC/2 + RL.
		if math.Abs(r1.Slack-r0.Slack) > 1e-9*math.Max(1, math.Abs(r0.Slack)) {
			t.Fatalf("seed %d: segmenting changed unbuffered slack: %.12g -> %.12g", seed, r0.Slack, r1.Slack)
		}
	}
}

func TestQuickToPositionsAlwaysValid(t *testing.T) {
	f := func(seed int64, targetRaw uint16) bool {
		base := netgen.Random(netgen.Opts{Sinks: 3 + int(seed%5+5)%5, Seed: seed})
		target := int(targetRaw)%2000 + 1
		seg, err := segment.ToPositions(base, target)
		if err != nil {
			return false
		}
		if seg.Validate() != nil {
			return false
		}
		want := target
		if base.NumBufferPositions() > target {
			want = base.NumBufferPositions()
		}
		return seg.NumBufferPositions() == want && seg.NumSinks() == base.NumSinks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestUniformMorePositionsNeverLowerSlack: finer buffer-position
// granularity can only help the optimizer (more choices), never hurt. Each
// split count refines the previous one, so every coarser position survives.
func TestUniformMorePositionsNeverLowerSlack(t *testing.T) {
	lib := library.Generate(8)
	drv := delay.Driver{R: 0.3}
	base := netgen.Random(netgen.Opts{Sinks: 8, Seed: 6})
	prev, err := core.Insert(base, lib, core.Options{Driver: drv})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 8} {
		seg, err := segment.Uniform(base, k)
		if err != nil {
			t.Fatal(err)
		}
		fine, err := core.Insert(seg, lib, core.Options{Driver: drv})
		if err != nil {
			t.Fatal(err)
		}
		if fine.Slack < prev.Slack-1e-9 {
			t.Fatalf("k=%d: more positions reduced slack: %g -> %g", k, prev.Slack, fine.Slack)
		}
		prev = fine
	}
}
