package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"bufferkit/internal/delay"
	"bufferkit/internal/netgen"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/tree"
)

// penaltyChain builds a 2-pin chain with k buffer positions.
func penaltyChain(k int) *tree.Tree {
	b := tree.NewBuilder()
	prev := 0
	for i := 0; i < k; i++ {
		prev = b.AddBufferPos(prev, 0.3, 40)
	}
	b.AddSink(prev, 0.2, 30, 12, 800)
	return b.MustBuild()
}

// TestSitePenaltyExactOnTwoPin checks the priced DP against exhaustive
// enumeration on 2-pin chains: with a single sink the penalized objective
// max over placements of (slack − Σ price of bought positions) is exactly
// what the DP computes.
func TestSitePenaltyExactOnTwoPin(t *testing.T) {
	lib := smallLib()
	drv := delay.Driver{R: 0.4, K: 3}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := penaltyChain(4)
		pen := make([]float64, tr.Len())
		var positions []int
		for v := range tr.Verts {
			if tr.Verts[v].BufferOK {
				positions = append(positions, v)
				pen[v] = rng.Float64() * 40
			}
		}

		// Exhaustive: every assignment of {none, type 0..b-1} to each position.
		best := -1e300
		assign := make([]int, len(positions))
		var walk func(i int)
		walk = func(i int) {
			if i == len(positions) {
				p := delay.NewPlacement(tr.Len())
				cost := 0.0
				for j, v := range positions {
					if assign[j] >= 0 {
						p[v] = assign[j]
						cost += pen[v]
					}
				}
				res, err := delay.Evaluate(tr, lib, p, drv)
				if err != nil {
					t.Fatal(err)
				}
				if s := res.Slack - cost; s > best {
					best = s
				}
				return
			}
			for a := -1; a < len(lib); a++ {
				assign[i] = a
				walk(i + 1)
			}
		}
		walk(0)

		got, err := Insert(tr, lib, Options{Driver: drv, SitePenalty: pen, CheckInvariants: true})
		if err != nil {
			t.Fatal(err)
		}
		if diff := got.Slack - best; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("seed %d: priced DP slack %.12g, exhaustive %.12g", seed, got.Slack, best)
		}
	}
}

// TestSitePenaltyNilMatchesZero asserts that a nil penalty vector and an
// all-zero one produce bit-identical results — the contract that lets the
// chip allocator skip the penalty on unpriced rounds.
func TestSitePenaltyNilMatchesZero(t *testing.T) {
	lib := smallLib()
	drv := delay.Driver{R: 0.5, K: 2}
	for seed := int64(0); seed < 25; seed++ {
		tr := netgen.RandomSmall(seed, 6, 0)
		plain, err := Insert(tr, lib, Options{Driver: drv})
		if err != nil {
			t.Fatal(err)
		}
		zero, err := Insert(tr, lib, Options{Driver: drv, SitePenalty: make([]float64, tr.Len())})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Slack != zero.Slack {
			t.Fatalf("seed %d: nil %.17g != zero %.17g", seed, plain.Slack, zero.Slack)
		}
		for v := range plain.Placement {
			if plain.Placement[v] != zero.Placement[v] {
				t.Fatalf("seed %d: placement differs at %d", seed, v)
			}
		}
	}
}

// TestSitePenaltyShortVectorRejected asserts Reset validates the penalty
// vector length.
func TestSitePenaltyShortVectorRejected(t *testing.T) {
	tr := penaltyChain(3)
	e := NewEngine()
	err := e.Reset(tr, smallLib(), Options{SitePenalty: make([]float64, 2)})
	var verr *solvererr.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("want ValidationError, got %v", err)
	}
}

// TestSitePenaltyNonFiniteRejected: a NaN, infinite or negative price is a
// *ValidationError naming the vertex, both on Engine.Reset and on a session
// PatchPenalty — which leaves the session's verdict unchanged (an all −Inf
// vector used to resolve to slack +Inf).
func TestSitePenaltyNonFiniteRejected(t *testing.T) {
	tr := penaltyChain(3)
	site := 1 // the first buffer position
	if !tr.Verts[site].BufferOK {
		t.Fatal("vertex 1 is not a buffer position")
	}
	opt := Options{Driver: delay.Driver{R: 0.4}}
	sess, err := NewSession(tr, smallLib(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	want := &Result{}
	if err := sess.Resolve(context.Background(), want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    float64
	}{{"NaN", math.NaN()}, {"+Inf", math.Inf(1)}, {"-Inf", math.Inf(-1)}, {"negative", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			pen := make([]float64, tr.Len())
			pen[site] = tc.p
			check := func(what string, err error) {
				t.Helper()
				var verr *solvererr.ValidationError
				if !errors.As(err, &verr) || verr.Field != "site_penalty" || verr.Vertex != site {
					t.Fatalf("%s: got %v, want a site_penalty ValidationError at vertex %d", what, err, site)
				}
			}
			check("Reset", NewEngine().Reset(tr, smallLib(), Options{SitePenalty: pen}))
			check("PatchPenalty", sess.PatchPenalty(pen))
			got := &Result{}
			if err := sess.Resolve(context.Background(), got); err != nil {
				t.Fatal(err)
			}
			if got.Slack != want.Slack {
				t.Fatalf("rejected patch changed the verdict: %g != %g", got.Slack, want.Slack)
			}
		})
	}
}
