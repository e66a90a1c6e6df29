package candidate

import (
	"math/rand"
	"sort"
	"testing"

	"bufferkit/internal/delay"
)

// refHull is the brute-force upper envelope of a C-sorted nonredundant
// list: point i is on the hull iff no j < i < k puts it on or below the
// segment from j to k. Collinear middles are excluded, matching the
// strict left turn AppendHullInto keeps. O(k³); exact on dyadic inputs.
func refHull(ps []Pair) []int {
	var out []int
	for i := range ps {
		on := true
		for j := 0; j < i && on; j++ {
			for k := i + 1; k < len(ps); k++ {
				// (Q_i − Q_j)·(C_k − C_j) ≤ (Q_k − Q_j)·(C_i − C_j): i is on
				// or below the chord j→k.
				if (ps[i].Q-ps[j].Q)*(ps[k].C-ps[j].C) <= (ps[k].Q-ps[j].Q)*(ps[i].C-ps[j].C) {
					on = false
					break
				}
			}
		}
		if on {
			out = append(out, i)
		}
	}
	return out
}

// refArgmax is the brute-force maximizer of Q − r·C, ties to the smaller
// C (the paper's best candidate), or -1 on an empty list.
func refArgmax(ps []Pair, r float64) int {
	best := -1
	for i, p := range ps {
		if best < 0 {
			best = i
			continue
		}
		v, bv := p.Q-r*p.C, ps[best].Q-r*ps[best].C
		if v > bv || (v == bv && p.C < ps[best].C) {
			best = i
		}
	}
	return best
}

// tieList builds an arena-backed nonredundant list from up to maxLen draws
// of the dyadic tie grid, one sink decision per surviving candidate, so
// collinear triples, equal slopes and equal Q − r·C values are common and
// every product the hull and argmax tests compare is exact.
func tieList(rng *rand.Rand, ar *Arena, maxLen int) (*SoAList, []Pair) {
	var raw []Pair
	for k := 1 + rng.Intn(maxLen); k > 0; k-- {
		raw = append(raw, Pair{tieGrid(rng, 17, 2) - 10, tieGrid(rng, 17, 0.5)})
	}
	ps := refNonredundant(raw)
	l := ar.NewSoAList()
	for i, p := range ps {
		l.q = append(l.q, p.Q)
		l.c = append(l.c, p.C)
		l.dec = append(l.dec, ar.SinkDec(i))
	}
	return l, ps
}

// TestSoAHullMatchesBruteForce holds AppendHullInto to refHull on
// tie-heavy lists, and HullDec to the decision of the candidate each hull
// point came from.
func TestSoAHullMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ar := NewArena()
	h := &Hull{}
	for iter := 0; iter < 2000; iter++ {
		ar.Reset()
		l, ps := tieList(rng, ar, 12)
		want := refHull(ps)
		h.Reset()
		l.AppendHullInto(h)
		if h.Len() != len(want) {
			t.Fatalf("iter %d: AppendHullInto kept %d points, want %d (%v) on %v", iter, h.Len(), len(want), want, ps)
		}
		cursor := 0
		for p, i := range want {
			if h.Q[p] != ps[i].Q || h.C[p] != ps[i].C {
				t.Fatalf("iter %d: hull point %d = (%g,%g), want %v", iter, p, h.Q[p], h.C[p], ps[i])
			}
			var dec DecRef
			dec, cursor = l.HullDec(h, p, cursor)
			if dec != l.DecAt(i) {
				t.Fatalf("iter %d: HullDec(%d) = %d, want %d", iter, p, dec, l.DecAt(i))
			}
		}
	}
}

// TestSoABestMatchesBruteForce holds Best and the monotone hull
// walk to refArgmax on tie-heavy lists with dyadic resistances, so ties
// in Q − r·C must break toward the smaller C everywhere.
func TestSoABestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ar := NewArena()
	h := &Hull{}
	for iter := 0; iter < 2000; iter++ {
		ar.Reset()
		l, ps := tieList(rng, ar, 12)
		h.Reset()
		l.AppendHullInto(h)
		rs := make([]float64, 1+rng.Intn(8))
		for i := range rs {
			rs[i] = tieGrid(rng, 17, 0.25)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(rs)))
		p := 0
		for _, r := range rs {
			want := refArgmax(ps, r)
			q, c, dec, ok := l.Best(r)
			if !ok || q != ps[want].Q || c != ps[want].C || dec != l.DecAt(want) {
				t.Fatalf("iter %d r=%g: Best (%g,%g,%d,%v), want %v dec %d", iter, r, q, c, dec, ok, ps[want], l.DecAt(want))
			}
			p = h.Walk(p, r)
			if h.Q[p] != ps[want].Q || h.C[p] != ps[want].C {
				t.Fatalf("iter %d r=%g: hull walk at (%g,%g), want %v on %v", iter, r, h.Q[p], h.C[p], ps[want], ps)
			}
		}
	}
}

// TestRemoveDominatedMatchesReference: removing the candidates a frontier
// dominates keeps exactly those not dominated by any frontier candidate
// (brute force over all pairs), with their decisions.
func TestRemoveDominatedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	ar := NewArena()
	for iter := 0; iter < 2000; iter++ {
		ar.Reset()
		l, ps := tieList(rng, ar, 12)
		f, fs := tieList(rng, ar, 6)
		if rng.Intn(8) == 0 {
			f.Recycle()
			fs = nil
		}
		var want []Pair
		var wantDec []DecRef
		for i, p := range ps {
			dominated := false
			for _, g := range fs {
				if g.Q >= p.Q && g.C <= p.C {
					dominated = true
				}
			}
			if !dominated {
				want = append(want, p)
				wantDec = append(wantDec, l.DecAt(i))
			}
		}
		l.RemoveDominated(f)
		if err := l.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		pairsEqual(t, l.Pairs(), want, "RemoveDominated")
		for i, d := range wantDec {
			if l.DecAt(i) != d {
				t.Fatalf("iter %d: decision %d = %d, want %d", iter, i, l.DecAt(i), d)
			}
		}
	}
}

// TestSoAListBestForRMatches holds Best, for each driving resistance r, to
// refArgmax on continuous random lists, where exact ties are rare and the
// scan order matters.
func TestSoAListBestForRMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 200; iter++ {
		l := randList(rng, 30)
		ps := l.Pairs()
		for trial := 0; trial < 10; trial++ {
			r := rng.Float64() * 10
			want := ps[refArgmax(ps, r)]
			if q, c, _, ok := l.Best(r); !ok || q != want.Q || c != want.C {
				t.Fatalf("iter %d r=%g: Best (%g,%g,%v), want %v", iter, r, q, c, ok, want)
			}
		}
	}
}

// TestSoAArenaRecycleReuse: after one cold cycle, the engine's per-position
// cycle — build, wire, merge, hull, hull walk, beta merge, fill — through a
// warm arena and hull performs zero heap allocations.
func TestSoAArenaRecycleReuse(t *testing.T) {
	ar := NewArena()
	betas := make([]Beta, 1)
	p := make([]int, 3)
	h := &Hull{}
	run := func() float64 {
		ar.Reset()
		a := ar.NewSoASink(50, 1, 1)
		b := ar.NewSoASink(60, 2, 2)
		m := MergeSoA(a, b)
		a.Free()
		b.Free()
		m.AddWire(0.1, 2)
		h.Reset()
		m.AppendHullInto(h)
		src, _ := m.HullDec(h, h.Walk(0, 0.5), 0)
		betas[0] = Beta{Q: 100, C: 0.5, Buffer: 1, Vertex: 0, SrcDec: src, Dec: 0}
		m.MergeBetas(betas)
		p[0], p[1], p[2] = -1, -1, -1
		ar.Fill(m.DecAt(0), p)
		if p[0] != 1 {
			t.Fatalf("fill lost the buffer decision: %v", p)
		}
		q := m.At(0).Q
		m.Free()
		return q
	}
	want := run()
	allocs := testing.AllocsPerRun(100, func() {
		if got := run(); got != want {
			t.Fatalf("warm run diverged: %g != %g", got, want)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("warm SoA arena cycle allocates %.1f times per run, want 0", allocs)
	}
}

func TestSoAListBasics(t *testing.T) {
	ar := NewArena()
	s := ar.NewSoASink(100, 5, 3)
	if s.Len() != 1 || s.At(0) != (Pair{100, 5}) {
		t.Fatalf("sink SoA list wrong: %+v", s)
	}
	if dec := ar.Decision(s.DecAt(0)); dec.Vertex != 3 || dec.Kind != DecSink {
		t.Fatalf("decision wrong: %+v", dec)
	}
	if _, _, _, ok := (&SoAList{}).Best(1); ok {
		t.Fatal("empty Best must report !ok")
	}
}

func TestSoAFromPairsPanicsOnDisorder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SoAFromPairs([]Pair{{1, 1}, {0, 2}})
}

// tieGrid draws a value from a small dyadic grid, so generated candidates
// collide constantly — equal C, equal Q, exact duplicates — and every wire
// update stays exact in float64.
func tieGrid(rng *rand.Rand, n int, step float64) float64 {
	return float64(rng.Intn(n)) * step
}

// TestSoAListTieHeavyMatchesReference drives one arena-backed SoAList through random
// AddWire / MergeBetas / InsertOne / MergeSoA steps whose inputs are drawn
// from a tiny grid, and after every step compares the surviving pairs with
// refNonredundant applied to the full multiset the step could have produced.
func TestSoAListTieHeavyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ar := NewArena()
	randPair := func() Pair { return Pair{tieGrid(rng, 9, 5) - 20, tieGrid(rng, 9, 0.5)} }
	for iter := 0; iter < 400; iter++ {
		ar.Reset()
		l := ar.NewSoAList()
		var want []Pair
		for step := 0; step < 16; step++ {
			var what string
			switch rng.Intn(4) {
			case 0:
				what = "InsertOne"
				p := randPair()
				l.InsertOne(p.Q, p.C, ar.SinkDec(step))
				want = refNonredundant(append(want, p))
			case 1:
				what = "AddWire"
				r, c := tieGrid(rng, 3, 0.5), tieGrid(rng, 3, 1)
				l.AddWire(r, c)
				wired := make([]Pair, len(want))
				for i, p := range want {
					wired[i] = Pair{p.Q - delay.WireDelay(r, c, p.C), p.C + c}
				}
				want = refNonredundant(wired)
			case 2:
				what = "MergeBetas"
				// Unnormalized betas in non-decreasing C with repeated C and
				// Q values; NormalizeBetas collapses the ties first, as the
				// engine does.
				betas := make([]Beta, 1+rng.Intn(5))
				for i := range betas {
					p := randPair()
					betas[i] = Beta{Q: p.Q, C: p.C, Buffer: i, Vertex: step}
				}
				sort.SliceStable(betas, func(i, j int) bool { return betas[i].C < betas[j].C })
				all := append([]Pair(nil), want...)
				for _, b := range betas {
					all = append(all, Pair{b.Q, b.C})
				}
				l.MergeBetas(NormalizeBetas(betas))
				want = refNonredundant(all)
			default:
				what = "MergeSoA"
				other := ar.NewSoAList()
				var side []Pair
				for k := rng.Intn(4); k >= 0; k-- {
					p := randPair()
					other.InsertOne(p.Q, p.C, ar.SinkDec(step))
					side = refNonredundant(append(side, p))
				}
				if len(want) == 0 {
					other.Free()
					continue // merging with an empty branch is the engine's nil case
				}
				var cross []Pair
				for _, a := range want {
					for _, b := range side {
						cross = append(cross, Pair{min(a.Q, b.Q), a.C + b.C})
					}
				}
				m := MergeSoA(l, other)
				l.Free()
				other.Free()
				l = m
				want = refNonredundant(cross)
			}
			if err := l.Validate(); err != nil {
				t.Fatalf("iter %d step %d (%s): %v", iter, step, what, err)
			}
			pairsEqual(t, l.Pairs(), want, what)
		}
	}
}

// SoAFromPairs builds an arena-less SoA list from pairs that must already be
// strictly increasing in Q and C (panics otherwise).
func SoAFromPairs(ps []Pair) *SoAList {
	l := &SoAList{
		q:   make([]float64, len(ps)),
		c:   make([]float64, len(ps)),
		dec: make([]DecRef, len(ps)),
	}
	for i, p := range ps {
		if i > 0 && (p.Q <= ps[i-1].Q || p.C <= ps[i-1].C) {
			panic("candidate: SoAFromPairs input not strictly increasing")
		}
		l.q[i], l.c[i] = p.Q, p.C
	}
	return l
}

// Pairs returns the candidates as a slice of pairs, front to back.
func (l *SoAList) Pairs() []Pair {
	out := make([]Pair, len(l.q))
	for i := range out {
		out[i] = Pair{l.q[i], l.c[i]}
	}
	return out
}
