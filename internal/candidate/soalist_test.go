package candidate

import (
	"math/rand"
	"sort"
	"testing"
)

// soaPair couples one linked list and one SoA list, each arena-backed by its
// own arena so the decision-record sequences of the two representations stay
// in lockstep and placements can be compared through Fill.
type soaPair struct {
	arL, arS *Arena
	ll       *List
	sl       *SoAList
}

func newSoaPair() *soaPair {
	p := &soaPair{arL: NewArena(), arS: NewArena()}
	p.reset()
	return p
}

// reset rewinds both arenas and starts both lists empty —
// the state of a fresh engine run, so iterating reset exercises the
// recycle/reuse path of both allocators.
func (p *soaPair) reset() {
	p.arL.Reset()
	p.arS.Reset()
	p.ll = p.arL.NewList()
	p.sl = p.arS.NewSoAList()
}

// seed replaces the content of both lists with the same strictly increasing
// pairs, recording one sink decision per candidate in each arena.
func (p *soaPair) seed(pairs []Pair) {
	p.ll.Recycle()
	p.sl.Recycle()
	for i, pr := range pairs {
		p.ll.pushBack(p.ll.newNode(pr.Q, pr.C, p.arL.SinkDec(i)))
		p.sl.q = append(p.sl.q, pr.Q)
		p.sl.c = append(p.sl.c, pr.C)
		p.sl.dec = append(p.sl.dec, p.arS.SinkDec(i))
	}
}

// check asserts both lists hold the identical candidate sequence and
// pass their invariant validators.
func (p *soaPair) check(t *testing.T, what string) {
	t.Helper()
	if err := p.ll.Validate(); err != nil {
		t.Fatalf("%s: linked: %v", what, err)
	}
	if err := p.sl.Validate(); err != nil {
		t.Fatalf("%s: soa: %v", what, err)
	}
	lp, sp := p.ll.Pairs(), p.sl.Pairs()
	if len(lp) != len(sp) {
		t.Fatalf("%s: lengths differ %d vs %d\n%v\n%v", what, len(lp), len(sp), lp, sp)
	}
	for i := range lp {
		if lp[i] != sp[i] {
			t.Fatalf("%s: candidate %d differs: %v vs %v", what, i, lp[i], sp[i])
		}
	}
}

// randIncreasing returns 1..maxLen strictly increasing (Q, C) pairs.
func randIncreasing(rng *rand.Rand, maxLen int) []Pair {
	k := 1 + rng.Intn(maxLen)
	out := make([]Pair, k)
	q, c := rng.Float64()*100-200, rng.Float64()*5
	for i := range out {
		out[i] = Pair{q, c}
		q += 0.01 + rng.Float64()*50
		c += 0.01 + rng.Float64()*10
	}
	return out
}

// TestSoAListMatchesLinkedList drives SoAList and the reference List through
// randomized interleavings of the full engine operation set — AddWire,
// Merge, InsertOne, MergeBetas, ConvexPruneInPlace — across repeated arena
// Reset cycles, and demands identical candidate sequences, identical prune
// counts, and identical reconstructed placements at every step.
func TestSoAListMatchesLinkedList(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := newSoaPair()
	place := make([]int, 64)
	placeS := make([]int, 64)
	for iter := 0; iter < 300; iter++ {
		p.reset() // exercise slab rewind + reuse every iteration
		p.seed(randIncreasing(rng, 25))
		for op := 0; op < 14; op++ {
			switch rng.Intn(5) {
			case 0:
				r, c := rng.Float64()*2, rng.Float64()*20
				if rng.Intn(4) == 0 {
					r = 0 // exercise the shear-only fast path
				}
				p.ll.AddWire(r, c)
				p.sl.AddWire(r, c)
			case 1:
				q, c := rng.Float64()*400-200, rng.Float64()*200
				okL := p.ll.InsertOne(q, c, p.arL.SinkDec(9))
				okS := p.sl.InsertOne(q, c, p.arS.SinkDec(9))
				if okL != okS {
					t.Fatalf("iter %d op %d: InsertOne disagreement (%v vs %v)", iter, op, okL, okS)
				}
			case 2:
				other := randIncreasing(rng, 10)
				ll2 := p.arL.NewList()
				sl2 := p.arS.NewSoAList()
				for i, pr := range other {
					ll2.pushBack(ll2.newNode(pr.Q, pr.C, p.arL.SinkDec(32+i)))
					sl2.q = append(sl2.q, pr.Q)
					sl2.c = append(sl2.c, pr.C)
					sl2.dec = append(sl2.dec, p.arS.SinkDec(32+i))
				}
				ml := Merge(p.ll, ll2)
				ms := MergeSoA(p.sl, sl2)
				p.ll.Free()
				ll2.Free()
				p.sl.Free()
				sl2.Free()
				p.ll, p.sl = ml, ms
			case 3:
				nb := 1 + rng.Intn(6)
				betasL := make([]Beta, nb)
				betasS := make([]Beta, nb)
				c := rng.Float64() * 10
				q := rng.Float64()*200 - 100
				for i := range betasL {
					b := Beta{Q: q, C: c, Buffer: i % 3, Vertex: 40 + i}
					betasL[i], betasS[i] = b, b
					c += 0.01 + rng.Float64()*20
					q += 0.01 + rng.Float64()*40
				}
				// Separate beta slices: decisions materialize lazily into
				// each list's own arena.
				p.ll.MergeBetas(betasL)
				p.sl.MergeBetas(betasS)
			default:
				prunedL := p.ll.ConvexPruneInPlace()
				prunedS := p.sl.ConvexPruneInPlace()
				if prunedL != prunedS {
					t.Fatalf("iter %d op %d: prune counts differ %d vs %d", iter, op, prunedL, prunedS)
				}
			}
			p.check(t, "after op")
		}
		// Hull agreement on the final state: the node-pointer HullView
		// against the packed builder, decisions resolved through HullDec.
		hl := p.ll.HullView()
		hs := &Hull{}
		p.sl.AppendHullInto(hs)
		if len(hl) != hs.Len() {
			t.Fatalf("iter %d: hull sizes %d vs %d", iter, len(hl), hs.Len())
		}
		cursor := 0
		for i, nd := range hl {
			if nd.Q != hs.Q[i] || nd.C != hs.C[i] {
				t.Fatalf("iter %d: hull point %d differs", iter, i)
			}
			// The two arenas allocate decisions in lockstep, so the hull
			// decision references must agree exactly.
			var ds DecRef
			ds, cursor = p.sl.HullDec(hs, i, cursor)
			if nd.Dec != ds {
				t.Fatalf("iter %d: hull decision %d differs: %d vs %d", iter, i, nd.Dec, ds)
			}
		}
		// Best-candidate and reconstruction agreement for a random R.
		r := rng.Float64() * 10
		nd := p.ll.BestForR(r)
		qs, cs, ds, okS := p.sl.Best(r)
		if (nd != nil) != okS || (nd != nil && (nd.Q != qs || nd.C != cs)) {
			t.Fatalf("iter %d: Best(%g) differs: %+v vs (%g,%g,%v)", iter, r, nd, qs, cs, okS)
		}
		var dl DecRef
		if nd != nil {
			dl = nd.Dec
		}
		for i := range place {
			place[i], placeS[i] = -1, -1
		}
		p.arL.Fill(dl, place)
		p.arS.Fill(ds, placeS)
		for i := range place {
			if place[i] != placeS[i] {
				t.Fatalf("iter %d: reconstructed placements differ at vertex %d: %d vs %d", iter, i, place[i], placeS[i])
			}
		}
	}
}

// TestSoAHullMatchesLinked checks the read-only hull builders agree with
// the node-pointer HullView on lists neither representation constructed
// themselves.
func TestSoAHullMatchesLinked(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 200; iter++ {
		base := randList(rng, 40).Pairs()
		ll := FromPairs(base)
		sl := SoAFromPairs(base)
		hullL := ll.HullView()
		hullS := sl.HullIdx()
		if len(hullL) != len(hullS) {
			t.Fatalf("iter %d: hull sizes %d vs %d", iter, len(hullL), len(hullS))
		}
		for i := range hullS {
			if got := sl.At(hullS[i]); got.Q != hullL[i].Q || got.C != hullL[i].C {
				t.Fatalf("iter %d: hull point %d differs", iter, i)
			}
		}
		// Destructive pruning must retain exactly the hull on both sides.
		prunedL := ll.ConvexPruneInPlace()
		prunedS := sl.ConvexPruneInPlace()
		if prunedL != prunedS || ll.Len() != sl.Len() || sl.Len() != len(hullS) {
			t.Fatalf("iter %d: destructive prune diverges (pruned %d vs %d, kept %d vs %d, hull %d)",
				iter, prunedL, prunedS, ll.Len(), sl.Len(), len(hullS))
		}
	}
}

func TestSoAListBestForRMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 200; iter++ {
		base := randList(rng, 30).Pairs()
		ll := FromPairs(base)
		sl := SoAFromPairs(base)
		for trial := 0; trial < 10; trial++ {
			r := rng.Float64() * 10
			nd := ll.BestForR(r)
			i := sl.BestForR(r)
			if nd.Q != sl.At(i).Q || nd.C != sl.At(i).C {
				t.Fatalf("iter %d r=%g: (%g,%g) vs %v", iter, r, nd.Q, nd.C, sl.At(i))
			}
		}
	}
}

// TestSoAArenaRecycleReuse mirrors TestArenaResetReleasesAndReuses for
// SoAList: after one cold cycle, a build–wire–merge–beta–prune–fill
// cycle through a warm arena performs zero heap allocations.
func TestSoAArenaRecycleReuse(t *testing.T) {
	ar := NewArena()
	betas := make([]Beta, 1)
	p := make([]int, 3)
	run := func() float64 {
		ar.Reset()
		a := ar.NewSoASink(50, 1, 1)
		b := ar.NewSoASink(60, 2, 2)
		m := MergeSoA(a, b)
		a.Free()
		b.Free()
		m.AddWire(0.1, 2)
		betas[0] = Beta{Q: 100, C: 0.5, Buffer: 1, Vertex: 0, SrcDec: m.DecAt(0), Dec: 0}
		m.MergeBetas(betas)
		m.ConvexPruneInPlace()
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
	if (&SoAList{}).BestForR(1) != -1 {
		t.Fatal("empty BestForR must return -1")
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

// TestSoAListTieHeavyMatchesReference is the SoA oracle that does not lean
// on the linked list: it drives one arena-backed SoAList through random
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
					wired[i] = Pair{p.Q - WireDelay(r, c, p.C), p.C + c}
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
