package bufferkit

// The ECO differential test: every session resolve must be bit-identical
// to a cold Solver.Run on the identically patched net. The test maintains
// its own mirror tree, applies each random delta to both the session and
// the mirror, and compares slack, placement and candidate counts exactly.
// Infeasibility (a patch can disable the only inverter position a negative
// sink needs) must agree too.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"bufferkit/internal/netgen"
	"bufferkit/internal/tree"
)

// ecoDelta is one randomized facade-level patch plus its mirror action on
// the test-maintained cold tree. PenaltyDelta is deliberately absent: the
// facade has no penalty channel on cold Run (prices are the chip
// allocator's, covered by TestChipSessionsMatchCold and the core suite).
func ecoDelta(rng *rand.Rand, tr *Tree, libSize int) (Delta, func(*Tree)) {
	var sinks, inner []int
	for v := range tr.Verts {
		if tr.Verts[v].Kind == tree.Sink {
			sinks = append(sinks, v)
		} else if v != 0 {
			inner = append(inner, v)
		}
	}
	switch k := rng.Intn(3); {
	case k == 0 || len(inner) == 0:
		d := SinkDelta{Vertex: sinks[rng.Intn(len(sinks))], RAT: 40 * rng.Float64(), Cap: 0.5 + 4*rng.Float64()}
		return d, func(m *Tree) { m.Verts[d.Vertex].RAT, m.Verts[d.Vertex].Cap = d.RAT, d.Cap }
	case k == 1:
		d := EdgeDelta{Vertex: 1 + rng.Intn(tr.Len()-1), R: 0.5 * rng.Float64(), C: 5 * rng.Float64()}
		return d, func(m *Tree) { m.Verts[d.Vertex].EdgeR, m.Verts[d.Vertex].EdgeC = d.R, d.C }
	default:
		d := BufferDelta{Vertex: inner[rng.Intn(len(inner))], OK: rng.Intn(4) != 0}
		if rng.Intn(3) == 0 {
			d.Allowed = []int{rng.Intn(libSize)}
		}
		return d, func(m *Tree) {
			m.Verts[d.Vertex].BufferOK = d.OK
			m.Verts[d.Vertex].Allowed = append([]int(nil), d.Allowed...)
		}
	}
}

// TestECODifferential drives randomized patch sequences over a ≥100-net
// corpus, asserting every session Resolve is bit-identical to a cold Run on
// the mirror tree.
func TestECODifferential(t *testing.T) {
	lib := GenerateLibraryWithInverters(3)
	const seeds = 120
	total := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := netgen.RandomSmall(seed, 6, 0.3)
		drv := Driver{R: 0.3 * rng.Float64(), K: 20 * rng.Float64()}
		s, err := NewSolver(WithLibrary(lib), WithDriver(drv))
		if err != nil {
			t.Fatal(err)
		}
		mirror := tr.Clone()
		sess, err := s.NewSession(tr)
		if err != nil {
			t.Fatalf("seed %d: NewSession: %v", seed, err)
		}
		total++
		for step := 0; step < 7; step++ {
			if step > 0 {
				d, apply := ecoDelta(rng, mirror, len(lib))
				if err := sess.Patch(d).Err(); err != nil {
					t.Fatalf("seed %d step %d: patch: %v", seed, step, err)
				}
				apply(mirror)
			}
			got, sessErr := sess.Resolve(context.Background())
			want, coldErr := s.Run(context.Background(), mirror)
			if (sessErr == nil) != (coldErr == nil) {
				t.Fatalf("seed %d step %d: session err %v, cold err %v", seed, step, sessErr, coldErr)
			}
			if sessErr != nil {
				if !errors.Is(sessErr, ErrInfeasible) || !errors.Is(coldErr, ErrInfeasible) {
					t.Fatalf("seed %d step %d: expected matching infeasibility, session %v cold %v",
						seed, step, sessErr, coldErr)
				}
				continue
			}
			if got.Slack != want.Slack {
				t.Fatalf("seed %d step %d: slack diverged: session %.17g, cold %.17g",
					seed, step, got.Slack, want.Slack)
			}
			if got.Candidates != want.Candidates {
				t.Fatalf("seed %d step %d: candidates diverged: session %d, cold %d",
					seed, step, got.Candidates, want.Candidates)
			}
			for v := range want.Placement {
				if got.Placement[v] != want.Placement[v] {
					t.Fatalf("seed %d step %d: placement diverged at vertex %d: session %d, cold %d",
						seed, step, v, got.Placement[v], want.Placement[v])
				}
			}
		}
		sess.Close()
		s.Close()
	}
	if total < 100 {
		t.Fatalf("ECO corpus has %d session nets, want ≥ 100", total)
	}
}

// TestSessionStickyPatchError asserts the chainable-Patch error contract:
// an invalid delta rejects its batch, sticks to the session, surfaces from
// the next Resolve (cleared), and leaves the session usable.
func TestSessionStickyPatchError(t *testing.T) {
	lib := GenerateLibrary(3)
	s, err := NewSolver(WithLibrary(lib), WithDriver(Driver{R: 0.2, K: 10}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := netgen.RandomSmall(1, 6, 0)
	sess, err := s.NewSession(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	base, err := sess.Resolve(context.Background())
	if err != nil {
		t.Fatalf("baseline resolve: %v", err)
	}

	bad := sess.Patch(SinkDelta{Vertex: 0, RAT: 1, Cap: 1}) // vertex 0 is the source
	if bad.Err() == nil {
		t.Fatal("invalid patch did not stick an error")
	}
	var verr *ValidationError
	if _, err := bad.Resolve(context.Background()); !errors.As(err, &verr) {
		t.Fatalf("Resolve after invalid patch: want ValidationError, got %v", err)
	}
	if sess.Err() != nil {
		t.Fatal("Resolve did not clear the sticky error")
	}
	res, err := sess.Resolve(context.Background())
	if err != nil {
		t.Fatalf("resolve after cleared error: %v", err)
	}
	if res.Slack != base.Slack {
		t.Fatalf("rejected patch changed the result: %.17g vs %.17g", res.Slack, base.Slack)
	}
}

// TestSessionRequiresCoreAlgorithm: sessions run on the core engine only.
func TestSessionRequiresCoreAlgorithm(t *testing.T) {
	s, err := NewSolver(WithLibrary(GenerateLibrary(2)), WithAlgorithm(AlgoLillis))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var verr *ValidationError
	if _, err := s.NewSession(netgen.RandomSmall(1, 6, 0)); !errors.As(err, &verr) {
		t.Fatalf("want ValidationError for non-core algorithm, got %v", err)
	}
}

// TestSessionRejectsAllowedUnderReduction: per-vertex Allowed masks index
// the original library, which a reduced solver has remapped away.
func TestSessionRejectsAllowedUnderReduction(t *testing.T) {
	lib := dominatedAugment(GenerateLibrary(3))
	s, err := NewSolver(WithLibrary(lib), WithLibraryReduction(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess, err := s.NewSession(netgen.RandomSmall(2, 6, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var verr *ValidationError
	if err := sess.Patch(BufferDelta{Vertex: 1, OK: true, Allowed: []int{0}}).Err(); !errors.As(err, &verr) {
		t.Fatalf("want ValidationError for Allowed under reduction, got %v", err)
	}
}
