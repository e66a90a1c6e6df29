package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/netgen"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/testutil"
	"bufferkit/internal/tree"
)

// randomDelta draws one typed delta against tr. Values are in range, so
// every delta is valid except a buffer delta on the source (vertex 0, drawn
// with the other non-sink vertices), which the session must reject. Valid
// deltas may still make the instance infeasible, which the session must
// report exactly like a cold run.
func randomDelta(rng *rand.Rand, tr *tree.Tree, libSize int) Delta {
	var sinks, nonSinks []int
	for v := range tr.Verts {
		if tr.Verts[v].Kind == tree.Sink {
			sinks = append(sinks, v)
		} else {
			nonSinks = append(nonSinks, v)
		}
	}
	switch k := rng.Intn(4); k {
	case 0:
		v := sinks[rng.Intn(len(sinks))]
		return SinkDelta{Vertex: v, RAT: 40 * rng.Float64(), Cap: 0.5 + 4*rng.Float64()}
	case 1:
		v := 1 + rng.Intn(tr.Len()-1)
		return EdgeDelta{Vertex: v, R: 0.5 * rng.Float64(), C: 5 * rng.Float64()}
	case 2:
		v := nonSinks[rng.Intn(len(nonSinks))]
		var allowed []int
		if rng.Intn(3) == 0 {
			allowed = []int{rng.Intn(libSize)}
		}
		return BufferDelta{Vertex: v, OK: rng.Intn(4) != 0, Allowed: allowed}
	default:
		pen := make([]float64, tr.Len())
		for i := 0; i < 3; i++ {
			pen[rng.Intn(len(pen))] = 5 * rng.Float64()
		}
		return PenaltyDelta{Penalty: pen}
	}
}

// checkSessionVsCold asserts the session's resolve is bit-identical —
// slack, placement, candidates — to a cold run on the patched instance, or
// that both fail with the same typed error.
func checkSessionVsCold(t *testing.T, s *Session, drv delay.Driver, lib library.Library, label string) {
	t.Helper()
	var got Result
	sessErr := s.Resolve(context.Background(), &got)

	cold := NewEngine()
	opt := Options{Driver: drv, SitePenalty: s.Penalty()}
	if err := cold.Reset(s.Tree(), lib, opt); err != nil {
		t.Fatalf("%s: cold reset: %v", label, err)
	}
	var want Result
	coldErr := cold.Run(&want)

	if (sessErr == nil) != (coldErr == nil) {
		t.Fatalf("%s: session err %v, cold err %v", label, sessErr, coldErr)
	}
	if sessErr != nil {
		if !errors.Is(sessErr, solvererr.ErrInfeasible) || !errors.Is(coldErr, solvererr.ErrInfeasible) {
			t.Fatalf("%s: expected matching infeasibility, session %v cold %v", label, sessErr, coldErr)
		}
		return
	}
	if got.Slack != want.Slack {
		t.Fatalf("%s: slack diverged: session %.17g, cold %.17g", label, got.Slack, want.Slack)
	}
	if got.Candidates != want.Candidates {
		t.Fatalf("%s: candidates diverged: session %d, cold %d", label, got.Candidates, want.Candidates)
	}
	for v := range want.Placement {
		if got.Placement[v] != want.Placement[v] {
			t.Fatalf("%s: placement diverged at vertex %d: session %d, cold %d",
				label, v, got.Placement[v], want.Placement[v])
		}
	}
	// The cold run shares the engine, so it cannot catch a placement the
	// engine scores wrongly; the Elmore oracle can. Site penalties only
	// lower the reported slack below the placement's true slack.
	for _, p := range s.Penalty() {
		if p != 0 {
			if r, err := delay.Evaluate(s.Tree(), lib, got.Placement, drv); err != nil || r.Slack < got.Slack-testutil.Tol {
				t.Fatalf("%s: penalized slack %.12g above the oracle's %+v (err %v)", label, got.Slack, r, err)
			}
			return
		}
	}
	testutil.CheckPlacement(t, s.Tree(), lib, got.Placement, drv, got.Slack, label)
}

// applyDelta patches d into s, half the time (by via) through the unboxed
// primitive the chip allocator uses instead of Patch: PatchBufferOK for a
// buffer delta without a type restriction (it keeps the vertex's Allowed
// set, which such a delta would clear), PatchPenalty for a penalty delta.
func applyDelta(s *Session, d Delta, via *rand.Rand) error {
	if via.Intn(2) == 0 {
		switch d := d.(type) {
		case BufferDelta:
			if d.Allowed == nil && s.Tree().Verts[d.Vertex].Allowed == nil {
				return s.PatchBufferOK(d.Vertex, d.OK)
			}
		case PenaltyDelta:
			return s.PatchPenalty(d.Penalty)
		}
	}
	return s.Patch(d)
}

func TestSessionMatchesColdRunUnderRandomPatches(t *testing.T) {
	lib := library.GenerateWithInverters(6)
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		via := rand.New(rand.NewSource(^seed))
		tr := netgen.RandomSmall(seed, 10, 0.3)
		drv := delay.Driver{R: 0.3 * rng.Float64(), K: 10 * rng.Float64()}
		s, err := NewSession(tr, lib, Options{Driver: drv})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkSessionVsCold(t, s, drv, lib, "initial")
		for step := 0; step < 8; step++ {
			d := randomDelta(rng, s.Tree(), len(lib))
			err := applyDelta(s, d, via)
			if bd, ok := d.(BufferDelta); ok && bd.Vertex == 0 {
				var verr *solvererr.ValidationError
				if !errors.As(err, &verr) || verr.Field != "delta" || verr.Vertex != 0 {
					t.Fatalf("seed %d step %d: buffer delta on the source: got %v, want a delta ValidationError at vertex 0", seed, step, err)
				}
			} else if err != nil {
				t.Fatalf("seed %d step %d: patch: %v", seed, step, err)
			}
			checkSessionVsCold(t, s, drv, lib, "patched")
		}
		s.Close()
	}
}

func TestSessionPatchBatchAtomic(t *testing.T) {
	tr := netgen.RandomSmall(3, 8, 0)
	lib := smallLib()
	s, err := NewSession(tr, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var sink int
	for v := range s.Tree().Verts {
		if s.Tree().Verts[v].Kind == tree.Sink {
			sink = v
			break
		}
	}
	before := s.Tree().Verts[sink].RAT
	err = s.Patch(
		SinkDelta{Vertex: sink, RAT: before + 10, Cap: 1},
		SinkDelta{Vertex: 0, RAT: 1, Cap: 1}, // vertex 0 is the source: invalid
	)
	var verr *solvererr.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("expected ValidationError, got %v", err)
	}
	if got := s.Tree().Verts[sink].RAT; got != before {
		t.Fatalf("failed batch mutated the tree: RAT %g, want %g", got, before)
	}
	// The session stays usable.
	var res Result
	if err := s.Resolve(context.Background(), &res); err != nil {
		t.Fatalf("resolve after rejected batch: %v", err)
	}
}

func TestSessionRecoversAfterInfeasiblePatch(t *testing.T) {
	// A negative sink whose only inverter position is disabled cannot reach
	// positive parity at the merge, so the merge vertex becomes mid-tree
	// infeasible; re-enabling the position must fully recover.
	b := tree.NewBuilder()
	m := b.AddInternal(0, 0.1, 1.0)
	b.AddSink(m, 0.2, 1.0, 1.5, 20)
	p := b.AddBufferPos(m, 0.1, 0.5)
	b.AddSinkPol(p, 0.2, 1.0, 1.5, 20, tree.Negative)
	_ = m
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lib := library.GenerateWithInverters(4)
	s, err := NewSession(tr, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var res Result
	if err := s.Resolve(context.Background(), &res); err != nil {
		t.Fatalf("baseline resolve: %v", err)
	}
	base := res.Slack

	if err := s.Patch(BufferDelta{Vertex: p, OK: false}); err != nil {
		t.Fatal(err)
	}
	if err := s.Resolve(context.Background(), &res); !errors.Is(err, solvererr.ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible, got %v", err)
	}

	if err := s.Patch(BufferDelta{Vertex: p, OK: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Resolve(context.Background(), &res); err != nil {
		t.Fatalf("resolve after recovery: %v", err)
	}
	if res.Slack != base {
		t.Fatalf("slack after recovery %.17g, want %.17g", res.Slack, base)
	}
}

func TestSessionWarmResolveZeroAllocs(t *testing.T) {
	tr := netgen.Random(netgen.Opts{Sinks: 12, Seed: 7})
	lib := library.Generate(8)
	drv := delay.Driver{R: 0.3, K: 5}
	s, err := NewSession(tr, lib, Options{Driver: drv})
	if err != nil {
		t.Fatal(err)
	}
	var sink int
	for v := range s.Tree().Verts {
		if s.Tree().Verts[v].Kind == tree.Sink {
			sink = v
			break
		}
	}
	var res Result
	ctx := context.Background()
	// Warm through at least one full decision-slab rebuild cycle so the
	// steady state (including periodic rebuilds) is measured warm.
	for i := 0; i < 400; i++ {
		if err := s.PatchSink(sink, float64(20+i%7), 1.5); err != nil {
			t.Fatal(err)
		}
		if err := s.Resolve(ctx, &res); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		if err := s.PatchSink(sink, float64(20+i%7), 1.5); err != nil {
			t.Fatal(err)
		}
		if err := s.Resolve(ctx, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm session patch+resolve allocates %.1f/op, want 0", allocs)
	}
	s.Close()
}
