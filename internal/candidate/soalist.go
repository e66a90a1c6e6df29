package candidate

import (
	"fmt"
	"math"
)

// SoAList is the candidate list every engine runs on: three parallel
// slabs — slacks, capacitances, decision references — kept strictly
// increasing in both Q and C.
//
// The paper chose a doubly-linked list for O(1) deletion and in-place
// O(k+b) merging (at a ~2% memory overhead, per its Section 4). The SoA
// layout keeps the same asymptotics but trades pointer-chasing for
// sequential copying: every operation is a forward pass over packed
// float64 arrays, which is the access pattern hardware prefetchers are
// built for. Operations that can shrink the list (AddWire re-pruning,
// RemoveDominated) compact in place; operations that can grow it
// (MergeBetas, InsertOne) rebuild into a swap buffer owned by the list and
// flip the two, so a warm list performs zero heap allocations. DESIGN.md
// §11 records why this is the only representation.
//
// The tests in soalist_test.go hold every operation to brute-force
// references: dominance filtering of the full candidate multiset, the
// upper envelope by exhaustive segment checks, and the argmax of Q − r·C
// by exhaustive scan.
type SoAList struct {
	q   []float64
	c   []float64
	dec []DecRef

	// Swap buffers for the rebuild operations. After a rebuild the roles
	// flip, so both sets of slabs stay warm and the steady state allocates
	// nothing.
	q2   []float64
	c2   []float64
	dec2 []DecRef

	ar *Arena
}

// Hull is the concave majorant of a candidate list, materialized as packed
// parallel arrays so the engines' monotone hull walk — the paper's O(k+b)
// device — touches contiguous memory. Engines own one Hull per parity and
// reuse it across buffer positions; Reset keeps capacity, so warm runs fill
// hulls without allocating. The hull builder scans O(k) candidates but the
// walk resolves decisions for at most b of them, so the hull carries no
// decision column: SoAList.HullDec recovers a point's decision on demand.
type Hull struct {
	Q, C []float64
}

// Reset empties the hull, keeping capacity.
func (h *Hull) Reset() { h.Q, h.C = h.Q[:0], h.C[:0] }

// Len returns the number of hull points.
func (h *Hull) Len() int { return len(h.Q) }

// Walk advances the monotone hull pointer p for driving resistance r: it
// moves forward while the next hull point is strictly better for Q − r·C,
// so ties keep the smaller C (the paper's best-candidate definition). On
// the concave majorant the objective is unimodal (Lemma 4) and its
// maximizer moves toward larger C as r decreases (Lemma 1), so walking a
// library in non-increasing r order finds every type's best candidate in
// O(k + b) total.
func (h *Hull) Walk(p int, r float64) int {
	for p+1 < len(h.Q) && h.Q[p+1]-r*h.C[p+1] > h.Q[p]-r*h.C[p] {
		p++
	}
	return p
}

// leftTurnQC reports whether the middle point b lies strictly above the
// chord a→c in the (C, Q) plane, i.e. slope(a→b) > slope(b→c). Points
// violating this (Eq. 2 of the paper) are off the concave majorant.
func leftTurnQC(aq, ac, bq, bc, cq, cc float64) bool {
	return (bq-aq)*(cc-bc) > (cq-bq)*(bc-ac)
}

// NewSoASink returns a single-candidate SoA list for a sink with RAT q and
// load c, recording its base-case decision in the arena.
func (ar *Arena) NewSoASink(q, c float64, vertex int) *SoAList {
	l := ar.NewSoAList()
	l.q = append(l.q, q)
	l.c = append(l.c, c)
	l.dec = append(l.dec, ar.SinkDec(vertex))
	return l
}

// SoAFromPairs builds an arena-less SoA list from pairs that must already be
// strictly increasing in Q and C (panics otherwise); primarily for tests and
// the data-structure benchmarks.
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

// Arena returns the arena backing this list, or nil.
func (l *SoAList) Arena() *Arena { return l.ar }

// Len returns the number of candidates.
func (l *SoAList) Len() int { return len(l.q) }

// At returns candidate i as (Q, C).
func (l *SoAList) At(i int) Pair { return Pair{l.q[i], l.c[i]} }

// DecAt returns the decision reference of candidate i.
func (l *SoAList) DecAt(i int) DecRef { return l.dec[i] }

// Pairs returns the candidates as a slice of pairs, front to back.
func (l *SoAList) Pairs() []Pair {
	out := make([]Pair, len(l.q))
	for i := range out {
		out[i] = Pair{l.q[i], l.c[i]}
	}
	return out
}

// Recycle empties the list, keeping its slab capacity for reuse.
func (l *SoAList) Recycle() {
	l.q, l.c, l.dec = l.q[:0], l.c[:0], l.dec[:0]
}

// Free is Recycle plus returning the list (with its slabs) to its arena's
// free list, for lists that are fully consumed (e.g. merge inputs). The
// caller must not use the list afterwards. Arena-less lists just empty.
func (l *SoAList) Free() {
	l.Recycle()
	if l.ar != nil {
		l.ar.freeSoA = append(l.ar.freeSoA, l)
	}
}

// Clone returns an independent deep copy of the list from the same
// allocator. Decision references are shared (decision records are immutable
// once written), so a clone may be consumed — wired, merged, freed —
// without disturbing the original. A clone drawn from the arena's free list
// reuses retained slab capacity, so steady-state cloning allocates nothing.
func (l *SoAList) Clone() *SoAList {
	var out *SoAList
	if l.ar != nil {
		out = l.ar.NewSoAList()
	} else {
		out = &SoAList{}
	}
	n := len(l.q)
	out.q = append(Resize(out.q, n)[:0], l.q...)
	out.c = append(Resize(out.c, n)[:0], l.c...)
	out.dec = append(Resize(out.dec, n)[:0], l.dec...)
	return out
}

// AddWire applies a wire of resistance r (kΩ) and capacitance c (fF)
// upstream: Q ← Q − r·(c/2 + C), C ← C + c, then compacts away candidates
// whose new Q does not strictly exceed their surviving predecessor's: C
// order is preserved (a constant shift), but Q order may break because
// high-C candidates pay more delay. Update and compaction are fused into a single streaming pass over the slabs (one read and at most
// one write per candidate, no pointer chain), which is where the SoA layout
// earns its keep on wire-heavy nets. O(k).
func (l *SoAList) AddWire(r, c float64) {
	q, cs, dec := l.q, l.c, l.dec
	n := len(q)
	if n == 0 || len(cs) < n || len(dec) < n {
		return // len guards double as bounds-check elimination hints
	}
	if r == 0 {
		// Shear by 0 preserves Q order; nothing can become dominated.
		for i := 0; i < n; i++ {
			cs[i] += c
		}
		return
	}
	// half is hoisted but the expression stays r·(c/2 + C) — bit-identical
	// to WireDelay, which the reference property tests hold it to.
	half := c / 2
	out := 0
	last := math.Inf(-1)
	for i := 0; i < n; i++ {
		nq := q[i] - r*(half+cs[i])
		if nq > last {
			q[out], cs[out], dec[out] = nq, cs[i]+c, dec[i]
			last = nq
			out++
		}
	}
	l.q, l.c, l.dec = q[:out], cs[:out], dec[:out]
}

// MergeSoA combines the candidate lists of two sibling branches meeting at
// a vertex: a joint candidate has Q = min(Q_a, Q_b) and C = C_a + C_b. For
// a target Q the cheapest combination pairs the first candidate of each
// list with Q at least the target, so a two-pointer sweep over the
// Q-sorted lists emits all nonredundant joint candidates in
// O(len(a) + len(b)). The inputs should be discarded (Free them when arena-backed); the output allocates from the
// first input's arena (or the second's, if the first has none). With no
// arena, merge decisions are not recorded.
func MergeSoA(a, b *SoAList) *SoAList {
	ar := a.ar
	if ar == nil {
		ar = b.ar
	}
	var out *SoAList
	if ar != nil {
		out = ar.NewSoAList()
	} else {
		out = &SoAList{}
	}
	// Pre-grow to the worst case and write by index: the two-pointer sweep
	// emits at most len(a)+len(b) candidates, and skipping append's
	// per-element capacity checks keeps the loop tight. The slabs retain
	// this capacity through the arena, so warm merges never grow.
	na, nb := len(a.q), len(b.q)
	oq := Resize(out.q, na+nb)
	oc := Resize(out.c, na+nb)
	od := Resize(out.dec, na+nb)
	w := 0
	x, y := 0, 0
	for x < na && y < nb {
		q := a.q[x]
		if b.q[y] < q {
			q = b.q[y]
		}
		c := a.c[x] + b.c[y]
		var dec DecRef
		if ar != nil {
			dec = ar.MergeDec(a.dec[x], b.dec[y])
		}
		if w > 0 && oc[w-1] == c {
			// Same capacitance, strictly larger Q (q increases every
			// iteration): the new candidate dominates the previous one.
			oq[w-1], od[w-1] = q, dec
		} else {
			oq[w], oc[w], od[w] = q, c, dec
			w++
		}
		if a.q[x] == q {
			x++
		}
		if b.q[y] == q {
			y++
		}
	}
	out.q, out.c, out.dec = oq[:w], oc[:w], od[:w]
	return out
}

// InsertOne inserts candidate (q, c, dec), maintaining nonredundancy, by a
// single forward rebuild into the swap buffer — the O(k) per-candidate
// insertion the Lillis–Cheng–Lin baseline performs b times per position.
// It reports whether the candidate survived (was not dominated).
func (l *SoAList) InsertOne(q, c float64, dec DecRef) bool {
	i := 0
	for i < len(l.q) && l.c[i] < c {
		i++
	}
	if i > 0 && l.q[i-1] >= q {
		return false // dominated by a cheaper-or-equal candidate
	}
	if i < len(l.q) && l.c[i] == c && l.q[i] >= q {
		return false
	}
	j := i
	for j < len(l.q) && l.q[j] <= q {
		j++ // dominated by the new candidate
	}
	nq, nc, nd := l.q2[:0], l.c2[:0], l.dec2[:0]
	nq = append(append(append(nq, l.q[:i]...), q), l.q[j:]...)
	nc = append(append(append(nc, l.c[:i]...), c), l.c[j:]...)
	nd = append(append(append(nd, l.dec[:i]...), dec), l.dec[j:]...)
	l.swap(nq, nc, nd)
	return true
}

// MergeBetas merges normalized betas (strictly increasing C and Q) into the
// list in a single forward pass — the paper's Theorem 2, O(k + b) — rebuilt
// into the swap buffer.
func (l *SoAList) MergeBetas(betas []Beta) {
	nq, nc, nd := l.q2[:0], l.c2[:0], l.dec2[:0]
	i := 0
	for bi := range betas {
		b := &betas[bi]
		// Surviving list candidates below the beta's capacitance are copied
		// as one run (three memmoves) rather than element by element.
		j := i
		for j < len(l.q) && l.c[j] < b.C {
			j++
		}
		if j > i {
			nq = append(nq, l.q[i:j]...)
			nc = append(nc, l.c[i:j]...)
			nd = append(nd, l.dec[i:j]...)
			i = j
		}
		if n := len(nq); n > 0 && nq[n-1] >= b.Q {
			continue // beta dominated
		}
		if i < len(l.q) && l.c[i] == b.C && l.q[i] >= b.Q {
			continue
		}
		nq = append(nq, b.Q)
		nc = append(nc, b.C)
		nd = append(nd, b.decision(l.ar))
		for i < len(l.q) && l.q[i] <= b.Q {
			i++ // list candidates the beta dominates
		}
	}
	nq = append(nq, l.q[i:]...)
	nc = append(nc, l.c[i:]...)
	nd = append(nd, l.dec[i:]...)
	l.swap(nq, nc, nd)
}

// RemoveDominated removes every candidate dominated by a candidate of f
// (one with Q ≥ q and C ≤ c), compacting in place. Both lists are C-sorted
// and f's Q grows with its C, so one forward sweep suffices: O(k + len(f)).
func (l *SoAList) RemoveDominated(f *SoAList) {
	out, j := 0, 0
	bestQ, has := 0.0, false
	for i := range l.q {
		for j < len(f.q) && f.c[j] <= l.c[i] {
			bestQ, has = f.q[j], true
			j++
		}
		if has && bestQ >= l.q[i] {
			continue
		}
		l.q[out], l.c[out], l.dec[out] = l.q[i], l.c[i], l.dec[i]
		out++
	}
	l.q, l.c, l.dec = l.q[:out], l.c[:out], l.dec[:out]
}

// swap installs a rebuilt candidate set and keeps the previous slabs as the
// next rebuild's scratch.
func (l *SoAList) swap(nq, nc []float64, nd []DecRef) {
	l.q, l.q2 = nq, l.q[:0]
	l.c, l.c2 = nc, l.c[:0]
	l.dec, l.dec2 = nd, l.dec[:0]
}

// BestForR returns the index of the candidate maximizing Q − r·C by full
// linear scan, breaking ties toward minimum C, or -1 on an empty list.
func (l *SoAList) BestForR(r float64) int {
	if len(l.q) == 0 {
		return -1
	}
	best, bv := 0, l.q[0]-r*l.c[0]
	for i := 1; i < len(l.q); i++ {
		if v := l.q[i] - r*l.c[i]; v > bv {
			best, bv = i, v
		}
	}
	return best
}

// Best is BestForR returning the candidate's values. ok is false on an
// empty list.
func (l *SoAList) Best(r float64) (q, c float64, dec DecRef, ok bool) {
	i := l.BestForR(r)
	if i < 0 {
		return 0, 0, 0, false
	}
	return l.q[i], l.c[i], l.dec[i], true
}

// AppendHullInto appends the concave majorant to h without modifying the
// list: convex pruning is a read-only view, so candidates off the hull stay
// available to later merges (DESIGN.md §4). Every maximizer of Q − r·C for
// any r ≥ 0 is on the hull (paper Lemma 3). Graham's scan over the already C-sorted
// slabs runs in O(k); the stack head is a plain cursor, so pops are a
// decrement and the hull slices are committed once at the end.
// Decisions are not copied — see Hull and HullDec.
func (l *SoAList) AppendHullInto(h *Hull) {
	q := l.q
	cs := l.c
	if len(cs) < len(q) {
		return
	}
	cs = cs[:len(q)]
	hq, hc := h.Q, h.C
	n := len(hq)
	for i := range q {
		qi, ci := q[i], cs[i]
		for n >= 2 && (hq[n-1]-hq[n-2])*(ci-hc[n-1]) <= (qi-hq[n-1])*(hc[n-1]-hc[n-2]) {
			n--
		}
		hq = append(hq[:n], qi)
		hc = append(hc[:n], ci)
		n++
	}
	h.Q, h.C = hq, hc
}

// HullDec resolves the decision of hull point p by an exact forward search
// of the strictly increasing C slab from the caller's cursor, returning the
// advanced cursor. The engines' hull walk visits points in increasing p, so
// threading the cursor back makes all resolutions of one buffer position
// O(k) total — cheaper than copying an O(k) third column during every hull
// scan just to read ≤ b entries of it.
func (l *SoAList) HullDec(h *Hull, p, hint int) (DecRef, int) {
	c := h.C[p]
	i := hint
	if i < p {
		i = p // a hull is a subsequence: point p sits at list index ≥ p
	}
	for l.c[i] != c {
		i++
	}
	return l.dec[i], i
}

// HullIdx returns the indices of the concave majorant (Graham's scan);
// primarily for tests.
func (l *SoAList) HullIdx() []int {
	hull := make([]int, 0, len(l.q))
	for i := range l.q {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			if leftTurnQC(l.q[a], l.c[a], l.q[b], l.c[b], l.q[i], l.c[i]) {
				break
			}
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, i)
	}
	return hull
}

// Validate checks the list invariants: strictly increasing Q and C, finite
// values, parallel slab lengths in agreement.
func (l *SoAList) Validate() error {
	if len(l.q) != len(l.c) || len(l.q) != len(l.dec) {
		return fmt.Errorf("candidate: SoA slab lengths diverge (%d, %d, %d)", len(l.q), len(l.c), len(l.dec))
	}
	for i := range l.q {
		if math.IsNaN(l.q[i]) || math.IsNaN(l.c[i]) || math.IsInf(l.q[i], 0) || math.IsInf(l.c[i], 0) {
			return fmt.Errorf("candidate: non-finite candidate (%g, %g)", l.q[i], l.c[i])
		}
		if i > 0 {
			if l.q[i] <= l.q[i-1] {
				return fmt.Errorf("candidate: Q not strictly increasing at index %d (%g after %g)", i, l.q[i], l.q[i-1])
			}
			if l.c[i] <= l.c[i-1] {
				return fmt.Errorf("candidate: C not strictly increasing at index %d (%g after %g)", i, l.c[i], l.c[i-1])
			}
		}
	}
	return nil
}
