package candidate

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"bufferkit/internal/delay"
)

// refNonredundant is the O(k²)-spirited reference implementation of
// dominance pruning: sort by C ascending (Q descending on ties), keep
// strictly increasing Q.
func refNonredundant(ps []Pair) []Pair {
	s := append([]Pair(nil), ps...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].C != s[j].C {
			return s[i].C < s[j].C
		}
		return s[i].Q > s[j].Q
	})
	var out []Pair
	for _, p := range s {
		if len(out) == 0 || p.Q > out[len(out)-1].Q {
			out = append(out, p)
		}
	}
	return out
}

// randList builds a random nonredundant list of up to maxLen candidates.
func randList(rng *rand.Rand, maxLen int) *SoAList {
	k := 1 + rng.Intn(maxLen)
	raw := make([]Pair, k)
	q, c := rng.Float64()*100-200, rng.Float64()*5
	for i := range raw {
		raw[i] = Pair{q, c}
		q += 0.01 + rng.Float64()*50
		c += 0.01 + rng.Float64()*10
	}
	return SoAFromPairs(raw)
}

func pairsEqual(t *testing.T, got, want []Pair, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d candidates %v, want %d %v", what, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: candidate %d: got %v want %v", what, i, got[i], want[i])
		}
	}
}

// hullPairs returns the concave majorant of l as pairs, via AppendHullInto.
func hullPairs(l *SoAList) []Pair {
	h := &Hull{}
	l.AppendHullInto(h)
	out := make([]Pair, h.Len())
	for i := range out {
		out[i] = Pair{h.Q[i], h.C[i]}
	}
	return out
}

func TestNewSink(t *testing.T) {
	ar := NewArena()
	l := ar.NewSoASink(120, 3.5, 7)
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
	if p := l.At(0); p.Q != 120 || p.C != 3.5 {
		t.Fatalf("candidate = (%g, %g), want (120, 3.5)", p.Q, p.C)
	}
	if dec := ar.Decision(l.DecAt(0)); l.DecAt(0) == 0 || dec.Kind != DecSink || dec.Vertex != 7 {
		t.Fatalf("decision = %+v, want sink at vertex 7", dec)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddWireSimple(t *testing.T) {
	l := NewArena().NewSoASink(100, 10, 1)
	l.AddWire(2, 4) // delay = 2*(4/2 + 10) = 24
	if p := l.At(0); p.Q != 76 || p.C != 14 {
		t.Fatalf("after wire: (%g, %g), want (76, 14)", p.Q, p.C)
	}
}

func TestAddWirePrunesReversals(t *testing.T) {
	// High-C candidate pays more wire delay and becomes dominated.
	l := SoAFromPairs([]Pair{{0, 0}, {10, 1}, {11, 100}})
	l.AddWire(1, 0) // Q -= C
	got := l.Pairs()
	want := []Pair{{0, 0}, {9, 1}} // (11-100, 100) = (-89,100) dominated
	pairsEqual(t, got, want, "AddWire")
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddWireZeroResistance(t *testing.T) {
	l := SoAFromPairs([]Pair{{0, 0}, {10, 1}})
	l.AddWire(0, 5)
	pairsEqual(t, l.Pairs(), []Pair{{0, 5}, {10, 6}}, "zero-R wire")
}

func TestAddWireProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		l := randList(rng, 40)
		before := l.Pairs()
		r := rng.Float64() * 2
		c := rng.Float64() * 20
		l.AddWire(r, c)
		if err := l.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		// Reference: transform every candidate, dominance-filter.
		ref := make([]Pair, len(before))
		for i, p := range before {
			ref[i] = Pair{p.Q - delay.WireDelay(r, c, p.C), p.C + c}
		}
		pairsEqual(t, l.Pairs(), refNonredundant(ref), "AddWire vs reference")
	}
}

func TestMergeSimple(t *testing.T) {
	a := SoAFromPairs([]Pair{{0, 1}, {10, 2}})
	b := SoAFromPairs([]Pair{{5, 1}})
	got := MergeSoA(a, b).Pairs()
	// q=0: (0, 2); q=5: best a with Q>=5 is (10,2) -> (5, 3)
	pairsEqual(t, got, []Pair{{0, 2}, {5, 3}}, "merge")
}

func TestMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 300; iter++ {
		a := randList(rng, 25)
		b := randList(rng, 25)
		ap, bp := a.Pairs(), b.Pairs()
		m := MergeSoA(a, b)
		if err := m.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if m.Len() > len(ap)+len(bp) {
			t.Fatalf("iter %d: merge of %d+%d produced %d candidates", iter, len(ap), len(bp), m.Len())
		}
		// Reference: full cross product, then dominance filter.
		ref := make([]Pair, 0, len(ap)*len(bp))
		for _, x := range ap {
			for _, y := range bp {
				ref = append(ref, Pair{math.Min(x.Q, y.Q), x.C + y.C})
			}
		}
		pairsEqual(t, m.Pairs(), refNonredundant(ref), "Merge vs cross-product reference")
	}
}

func TestMergeDecisionsReferenceBothBranches(t *testing.T) {
	ar := NewArena()
	a := ar.NewSoASink(50, 1, 3)
	b := ar.NewSoASink(60, 2, 4)
	m := MergeSoA(a, b)
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	dec := ar.Decision(m.DecAt(0))
	if dec.Kind != DecMerge || dec.A == 0 || dec.B == 0 {
		t.Fatalf("decision %+v does not join two branches", dec)
	}
	p := []int{-1, -1, -1, -1, -1}
	ar.Fill(m.DecAt(0), p)
	for i, v := range p {
		if v != -1 {
			t.Fatalf("p[%d] = %d, want no buffers", i, v)
		}
	}
}

func TestInsertOneCases(t *testing.T) {
	base := []Pair{{0, 0}, {10, 10}, {20, 20}}
	cases := []struct {
		name string
		q, c float64
		want []Pair
		ok   bool
	}{
		{"dominated by cheaper", 5, 15, base, false},
		{"dominates middle", 15, 5, []Pair{{0, 0}, {15, 5}, {20, 20}}, true},
		{"dominates tail", 25, 15, []Pair{{0, 0}, {10, 10}, {25, 15}}, true},
		{"front insert", 1, -1, []Pair{{1, -1}, {10, 10}, {20, 20}}, true},
		{"back insert", 30, 30, []Pair{{0, 0}, {10, 10}, {20, 20}, {30, 30}}, true},
		{"equal C better Q", 12, 10, []Pair{{0, 0}, {12, 10}, {20, 20}}, true},
		{"equal C worse Q", 8, 10, base, false},
		{"exact duplicate", 10, 10, base, false},
		{"dominates everything", 99, -5, []Pair{{99, -5}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := SoAFromPairs(base)
			ok := l.InsertOne(tc.q, tc.c, 0)
			if ok != tc.ok {
				t.Fatalf("InsertOne returned %v, want %v", ok, tc.ok)
			}
			pairsEqual(t, l.Pairs(), tc.want, "list after insert")
			if err := l.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestInsertOneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 300; iter++ {
		l := randList(rng, 30)
		before := l.Pairs()
		q := rng.Float64()*400 - 300
		c := rng.Float64() * 400
		l.InsertOne(q, c, 0)
		if err := l.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		pairsEqual(t, l.Pairs(), refNonredundant(append(before, Pair{q, c})), "InsertOne vs reference")
	}
}

func TestHullViewSlopesStrictlyDecrease(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := &Hull{}
	for iter := 0; iter < 300; iter++ {
		l := randList(rng, 40)
		h.Reset()
		l.AppendHullInto(h)
		n := h.Len()
		if n == 0 || h.Q[0] != l.At(0).Q || h.Q[n-1] != l.At(l.Len()-1).Q {
			t.Fatalf("iter %d: hull must keep extreme candidates", iter)
		}
		for i := 2; i < n; i++ {
			s1 := (h.Q[i-1] - h.Q[i-2]) / (h.C[i-1] - h.C[i-2])
			s2 := (h.Q[i] - h.Q[i-1]) / (h.C[i] - h.C[i-1])
			if !(s1 > s2) {
				t.Fatalf("iter %d: slopes not strictly decreasing: %g then %g", iter, s1, s2)
			}
		}
	}
}

// TestHullKeepsBestForAnyR is the paper's Lemma 3: convex pruning never
// removes the candidate maximizing Q − R·C (ties toward min C), for any R.
func TestHullKeepsBestForAnyR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		l := randList(rng, 40)
		inHull := map[Pair]bool{}
		for _, p := range hullPairs(l) {
			inHull[p] = true
		}
		for trial := 0; trial < 20; trial++ {
			r := rng.Float64() * 20
			q, c, _, _ := l.Best(r)
			if best := (Pair{q, c}); !inHull[best] {
				t.Fatalf("iter %d: best for R=%g at %v was convex-pruned", iter, r, best)
			}
		}
	}
}

// TestHullWalkMatchesLinearScan is the paper's Lemmas 1 & 4: walking a
// single monotone pointer over the hull with resistances in non-increasing
// order finds the same best candidates as full linear scans.
func TestHullWalkMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	h := &Hull{}
	for iter := 0; iter < 200; iter++ {
		l := randList(rng, 40)
		h.Reset()
		l.AppendHullInto(h)
		// Random non-increasing resistances.
		rs := make([]float64, 1+rng.Intn(30))
		for i := range rs {
			rs[i] = rng.Float64() * 10
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(rs)))
		p := 0
		prevC := math.Inf(-1)
		for _, r := range rs {
			p = h.Walk(p, r)
			q, c, _, _ := l.Best(r)
			if want := (Pair{q, c}); h.Q[p] != want.Q || h.C[p] != want.C {
				t.Fatalf("iter %d: walk found (%g,%g) for R=%g, scan found %v",
					iter, h.Q[p], h.C[p], r, want)
			}
			if h.C[p] < prevC {
				t.Fatalf("iter %d: best-candidate C went backwards (Lemma 1 violated)", iter)
			}
			prevC = h.C[p]
		}
	}
}

func TestNormalizeBetas(t *testing.T) {
	in := []Beta{{Q: 5, C: 1}, {Q: 3, C: 1}, {Q: 4, C: 2}, {Q: 9, C: 3}, {Q: 9, C: 4}}
	out := NormalizeBetas(in)
	want := []Pair{{5, 1}, {9, 3}}
	if len(out) != len(want) {
		t.Fatalf("got %d betas, want %d", len(out), len(want))
	}
	for i := range want {
		if (Pair{out[i].Q, out[i].C}) != want[i] {
			t.Fatalf("beta %d = (%g,%g), want %v", i, out[i].Q, out[i].C, want[i])
		}
	}
}

func TestNormalizeBetasPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted betas")
		}
	}()
	NormalizeBetas([]Beta{{Q: 1, C: 2}, {Q: 2, C: 1}})
}

func TestMergeBetasProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 300; iter++ {
		l := randList(rng, 30)
		before := l.Pairs()
		nb := 1 + rng.Intn(10)
		betas := make([]Beta, nb)
		c := rng.Float64() * 5
		q := rng.Float64()*200 - 100
		for i := range betas {
			betas[i] = Beta{Q: q, C: c}
			c += 0.01 + rng.Float64()*20
			q += 0.01 + rng.Float64()*40
		}
		all := append([]Pair(nil), before...)
		for _, b := range betas {
			all = append(all, Pair{b.Q, b.C})
		}
		l.MergeBetas(betas)
		if err := l.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		pairsEqual(t, l.Pairs(), refNonredundant(all), "MergeBetas vs reference")
	}
}

func TestMergeBetasIntoEmptyList(t *testing.T) {
	l := &SoAList{}
	l.MergeBetas([]Beta{{Q: 1, C: 1}, {Q: 2, C: 2}})
	pairsEqual(t, l.Pairs(), []Pair{{1, 1}, {2, 2}}, "betas into empty list")
}

// TestMergeBetasMatchesInsertOne: the O(k+b) pass and b sequential O(k)
// insertions compute the same set.
func TestMergeBetasMatchesInsertOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 300; iter++ {
		base := randList(rng, 30).Pairs()
		nb := 1 + rng.Intn(8)
		betas := make([]Beta, nb)
		c := rng.Float64() * 10
		q := rng.Float64()*200 - 100
		for i := range betas {
			betas[i] = Beta{Q: q, C: c}
			c += 0.01 + rng.Float64()*15
			q += 0.01 + rng.Float64()*30
		}
		l1 := SoAFromPairs(base)
		l1.MergeBetas(betas)
		l2 := SoAFromPairs(base)
		for _, b := range betas {
			l2.InsertOne(b.Q, b.C, b.Dec)
		}
		pairsEqual(t, l1.Pairs(), l2.Pairs(), "MergeBetas vs InsertOne")
	}
}

// TestDestructivePruningCounterexample is the DESIGN.md §4 demonstration
// that the merge operation does not preserve convex hulls: pruning the
// interior candidate (4,1) from the list itself, as the paper's printed
// code does, loses the better merged candidate. It is why the hull is only
// ever a read-only view.
func TestDestructivePruningCounterexample(t *testing.T) {
	mk := func() *SoAList { return SoAFromPairs([]Pair{{0, 0}, {4, 1}, {10, 2}}) }
	other := func() *SoAList { return SoAFromPairs([]Pair{{4, 0.5}}) }

	full := MergeSoA(mk(), other())
	pairsEqual(t, full.Pairs(), []Pair{{0, 0.5}, {4, 1.5}}, "merge with full list")

	hull := hullPairs(mk())
	pairsEqual(t, hull, []Pair{{0, 0}, {10, 2}}, "hull drops (4,1)")
	lossy := MergeSoA(SoAFromPairs(hull), other())
	pairsEqual(t, lossy.Pairs(), []Pair{{0, 0.5}, {4, 2.5}}, "merge with pruned list")
	// The surviving Q=4 candidate now carries 1 fF more: any upstream
	// resistance r loses r·1 ps of slack versus the exact answer.
}

func TestDecisionFillDeepChain(t *testing.T) {
	// A 200k-deep buffer chain must not overflow the stack, and must span
	// many arena slabs.
	const depth = 200_000
	ar := NewArena()
	dec := ar.SinkDec(0)
	for i := 1; i <= depth; i++ {
		dec = ar.BufferDec(i, i%3, dec)
	}
	p := make([]int, depth+1)
	for i := range p {
		p[i] = -1
	}
	ar.Fill(dec, p)
	for i := 1; i <= depth; i++ {
		if p[i] != i%3 {
			t.Fatalf("p[%d] = %d, want %d", i, p[i], i%3)
		}
	}
}

// TestArenaResetReleasesAndReuses: after Reset the arena hands out the same
// slab memory again, and a warm arena performs a whole build-merge-fill
// cycle without allocating.
func TestArenaResetReleasesAndReuses(t *testing.T) {
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
		betas[0] = Beta{Q: 100, C: 0.5, Buffer: 1, Vertex: 0, SrcDec: m.DecAt(0)}
		m.MergeBetas(betas)
		p[0], p[1], p[2] = -1, -1, -1
		ar.Fill(m.DecAt(0), p)
		if p[0] != 1 {
			t.Fatalf("fill lost the buffer decision: %v", p)
		}
		return m.At(0).Q
	}
	want := run()
	allocs := testing.AllocsPerRun(100, func() {
		if got := run(); got != want {
			t.Fatalf("warm run diverged: %g != %g", got, want)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("warm arena cycle allocates %.1f times per run, want 0", allocs)
	}
}

// TestFromPairsPanicsOnDisorder: a C sequence that does not strictly
// increase is rejected even when Q does increase (the Q side is
// TestSoAFromPairsPanicsOnDisorder).
func TestFromPairsPanicsOnDisorder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SoAFromPairs([]Pair{{0, 2}, {1, 2}})
}

func TestValidateDetectsCorruption(t *testing.T) {
	l := SoAFromPairs([]Pair{{0, 0}, {1, 1}})
	l.q[0] = 5 // breaks strict Q order
	if err := l.Validate(); err == nil {
		t.Fatal("Validate accepted a corrupted list")
	}
	l2 := SoAFromPairs([]Pair{{0, 0}})
	l2.c[0] = math.NaN()
	if err := l2.Validate(); err == nil {
		t.Fatal("Validate accepted NaN")
	}
	l3 := SoAFromPairs([]Pair{{0, 0}, {1, 1}})
	l3.dec = l3.dec[:1]
	if err := l3.Validate(); err == nil {
		t.Fatal("Validate accepted diverging slab lengths")
	}
}

// TestQuickNonredundantClosure uses testing/quick to fuzz arbitrary pair
// multisets through SoAFromPairs(refNonredundant(...)) and the list
// operations, asserting the invariants always hold.
func TestQuickNonredundantClosure(t *testing.T) {
	f := func(qs []float64, r, c uint8) bool {
		if len(qs) == 0 {
			return true
		}
		// Build candidates from the fuzzed values deterministically.
		ps := make([]Pair, 0, len(qs))
		for i, q := range qs {
			if math.IsNaN(q) || math.IsInf(q, 0) {
				return true // skip degenerate fuzz input
			}
			q = math.Mod(q, 1e6)
			ps = append(ps, Pair{q, float64(i) + math.Abs(q)/1e7})
		}
		nr := refNonredundant(ps)
		if len(nr) == 0 {
			return true
		}
		l := SoAFromPairs(nr)
		l.AddWire(float64(r)/16, float64(c)/4)
		if l.Validate() != nil {
			return false
		}
		l.InsertOne(float64(c), float64(r), 0)
		return l.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendHullIntoReusesBuffer: the hull builder appends into the caller's
// Hull, and Reset keeps its capacity, so warm hull builds do not allocate.
func TestAppendHullIntoReusesBuffer(t *testing.T) {
	l := SoAFromPairs([]Pair{{0, 0}, {1, 1}, {100, 2}})
	h := &Hull{Q: make([]float64, 0, 8), C: make([]float64, 0, 8)}
	l.AppendHullInto(h)
	if h.Len() != 2 { // (1,1) has increasing slopes -> pruned
		t.Fatalf("hull size %d, want 2", h.Len())
	}
	if cap(h.Q) != 8 || cap(h.C) != 8 {
		t.Fatalf("buffer not reused: cap %d/%d", cap(h.Q), cap(h.C))
	}
	allocs := testing.AllocsPerRun(20, func() {
		h.Reset()
		l.AppendHullInto(h)
	})
	if allocs > 0 || h.Len() != 2 {
		t.Fatalf("warm hull rebuild: %.1f allocs, %d points", allocs, h.Len())
	}
}

func TestPairsRoundTrip(t *testing.T) {
	want := []Pair{{-3, 0}, {0, 1}, {5, 2.5}}
	got := SoAFromPairs(want).Pairs()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %v want %v", got, want)
	}
}

func TestRecycleEmptiesList(t *testing.T) {
	l := SoAFromPairs([]Pair{{0, 0}, {1, 1}, {2, 2}})
	l.Recycle()
	if l.Len() != 0 {
		t.Fatalf("Recycle left %d candidates", l.Len())
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// The list is reusable after recycling.
	if !l.InsertOne(5, 5, 0) {
		t.Fatal("insert into recycled list failed")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
}

// TestPoolReuseDoesNotAliasDecisions guards slab reuse against the
// lineage-corruption hazard documented on Beta: decisions read from
// removed candidates must stay valid because betas capture SrcDec (the
// decision reference), never a slab position.
func TestPoolReuseDoesNotAliasDecisions(t *testing.T) {
	ar := NewArena()
	l := ar.NewSoASink(10, 1, 7)
	src := l.DecAt(0)
	betas := []Beta{{Q: 20, C: 0.5, Buffer: 2, Vertex: 3, SrcDec: src}}
	l.MergeBetas(betas) // dominates and removes the sink candidate
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
	dec := ar.Decision(l.DecAt(0))
	if l.DecAt(0) == 0 || dec.Kind != DecBuffer || dec.Vertex != 3 || dec.Buffer != 2 {
		t.Fatalf("decision corrupted: %+v", dec)
	}
	if a := ar.Decision(dec.A); dec.A != src || a.Kind != DecSink || a.Vertex != 7 {
		t.Fatalf("lineage corrupted: %+v", a)
	}
}
