// Package candidate implements the (Q, C) candidate machinery shared by all
// buffer-insertion algorithms in this repository.
//
// A candidate for a subtree T_v is one way of buffering T_v, summarized by
// its slack Q (ps) and downstream capacitance C (fF) at v. Candidate α
// dominates α' when Q(α) ≥ Q(α') and C(α) ≤ C(α'). The set of nonredundant
// candidates, kept sorted, is strictly increasing in both Q and C.
//
// The package provides two representations of a candidate list with the
// same operation set — the three van Ginneken operations (add-wire, merge,
// insert) and convex pruning, Graham's scan over the C-sorted list, which is
// the paper's key device: for every driving resistance R ≥ 0 the maximizer
// of Q − R·C lies on the concave majorant of the (C, Q) points.
//
//   - SoAList (soalist.go), packed parallel slabs, is what the insertion
//     engines (internal/core, internal/lillis) run on.
//   - List, the doubly-linked list the paper's C code uses (O(1) deletion,
//     O(k+b) in-place merging), backs the cost–slack extension
//     (internal/costopt) and serves as the readable reference SoAList is
//     property-tested against.
//
// Allocation model: reconstruction decisions are index-linked records in a
// per-run Arena (see arena.go) rather than individually heap-allocated
// nodes, and arena-backed lists draw their nodes and headers from the same
// arena, so the whole run's memory releases in O(1) and a warm arena
// allocates nothing. Lists created without an arena (FromPairs, tests)
// still recycle nodes through a package-level sync.Pool.
package candidate

import (
	"fmt"
	"math"
	"sync"
)

// DecisionKind tags how a candidate came to be, for solution reconstruction.
type DecisionKind uint8

const (
	// DecSink is the base case: the candidate of a bare sink.
	DecSink DecisionKind = iota
	// DecBuffer records the insertion of one buffer at a vertex.
	DecBuffer
	// DecMerge joins the candidates of two sibling branches.
	DecMerge
)

// Decision is the read-only view of one reconstruction record, obtained
// from an Arena via Arena.Decision. Wire operations do not change
// placements, so they create no decisions; each candidate simply carries
// its decision reference through.
type Decision struct {
	Kind   DecisionKind
	Vertex int // sink vertex (DecSink) or buffer position (DecBuffer)
	Buffer int // library type index (DecBuffer only)
	A, B   DecRef
}

// Node is one nonredundant candidate in a List.
type Node struct {
	Q, C float64
	Dec  DecRef

	prev, next *Node
}

// Next returns the successor candidate (larger Q and C), or nil.
func (n *Node) Next() *Node { return n.next }

// Prev returns the predecessor candidate (smaller Q and C), or nil.
func (n *Node) Prev() *Node { return n.prev }

// nodePool recycles nodes of arena-less lists. The candidate machinery
// churns through nodes at a high rate — every buffer position inserts up to
// b candidates and prunes about as many — and letting them all reach the
// garbage collector costs more than the algorithm itself on paper-scale
// nets. Arena-backed lists bypass this pool entirely: their nodes come from
// and return to the arena's slabs.
var nodePool = sync.Pool{New: func() any { return new(Node) }}

// newNode allocates a node for this list: from the list's arena when it has
// one, from the package pool otherwise.
func (l *List) newNode(q, c float64, dec DecRef) *Node {
	if l.ar != nil {
		return l.ar.newNode(q, c, dec)
	}
	nd := nodePool.Get().(*Node)
	nd.Q, nd.C, nd.Dec = q, c, dec
	nd.prev, nd.next = nil, nil
	return nd
}

// putNode returns a node to its allocator.
func (l *List) putNode(nd *Node) {
	nd.Dec, nd.prev, nd.next = 0, nil, nil
	if l.ar != nil {
		l.ar.putNode(nd)
		return
	}
	nodePool.Put(nd)
}

// Recycle returns every node of the list to its allocator and empties it.
// The caller must drop every node pointer taken from the list, but may keep
// using the (now empty) list itself. Reconstruction decisions are
// unaffected.
func (l *List) Recycle() {
	for nd := l.front; nd != nil; {
		next := nd.next
		l.putNode(nd)
		nd = next
	}
	l.front, l.back, l.n = nil, nil, 0
}

// Free is Recycle plus returning the list header itself to its arena, for
// lists obtained from Arena.NewList that are fully consumed (e.g. merge
// inputs). The caller must not use the list afterwards. Arena-less lists
// just recycle their nodes.
func (l *List) Free() {
	l.Recycle()
	if l.ar != nil {
		l.ar.freeList = append(l.ar.freeList, l)
	}
}

// List is a doubly-linked list of candidates, strictly increasing in both
// Q and C from front to back. The zero value is an empty list that
// allocates from the package node pool; lists from Arena.NewList allocate
// from their arena.
type List struct {
	front, back *Node
	n           int
	ar          *Arena
}

// Arena returns the arena backing this list, or nil.
func (l *List) Arena() *Arena { return l.ar }

// Len returns the number of candidates.
func (l *List) Len() int { return l.n }

// Front returns the candidate with minimum C (and minimum Q), or nil.
func (l *List) Front() *Node { return l.front }

// Back returns the candidate with maximum C (and maximum Q), or nil.
func (l *List) Back() *Node { return l.back }

func (l *List) pushBack(nd *Node) {
	nd.prev = l.back
	nd.next = nil
	if l.back != nil {
		l.back.next = nd
	} else {
		l.front = nd
	}
	l.back = nd
	l.n++
}

// Clone returns an independent deep copy of the list from the same
// allocator. Decision references are shared (decision records are immutable
// once written), so a clone may be consumed — wired, merged, freed —
// without disturbing the original. This is what lets a retained-frontier
// resolve reuse a checkpointed sibling at a merge: the merge consumes the
// clone, the checkpoint survives.
func (l *List) Clone() *List {
	var out *List
	if l.ar != nil {
		out = l.ar.NewList()
	} else {
		out = &List{}
	}
	for nd := l.front; nd != nil; nd = nd.next {
		out.pushBack(out.newNode(nd.Q, nd.C, nd.Dec))
	}
	return out
}

// remove unlinks nd, recycles it, and returns the node that followed it.
// The caller must drop every pointer to nd.
func (l *List) remove(nd *Node) *Node {
	next := nd.next
	if nd.prev != nil {
		nd.prev.next = nd.next
	} else {
		l.front = nd.next
	}
	if nd.next != nil {
		nd.next.prev = nd.prev
	} else {
		l.back = nd.prev
	}
	l.putNode(nd)
	l.n--
	return next
}

// Remove unlinks nd, which must be a current member of the list.
func (l *List) Remove(nd *Node) { l.remove(nd) }

// insertAfter links nd after pred; pred == nil inserts at the front.
func (l *List) insertAfter(pred *Node, nd *Node) {
	if pred == nil {
		nd.prev = nil
		nd.next = l.front
		if l.front != nil {
			l.front.prev = nd
		} else {
			l.back = nd
		}
		l.front = nd
	} else {
		nd.prev = pred
		nd.next = pred.next
		if pred.next != nil {
			pred.next.prev = nd
		} else {
			l.back = nd
		}
		pred.next = nd
	}
	l.n++
}

// AddWire applies a wire of resistance r (kΩ) and capacitance c (fF)
// upstream of the current point: Q ← Q − r·(c/2 + C), C ← C + c, then
// re-prunes dominated candidates. C order is preserved (a constant shift);
// Q order may break because high-C candidates pay more delay, so a forward
// scan removes every candidate whose new Q does not strictly exceed its
// surviving predecessor's. O(k).
func (l *List) AddWire(r, c float64) {
	for nd := l.front; nd != nil; nd = nd.next {
		nd.Q -= WireDelay(r, c, nd.C)
		nd.C += c
	}
	if r == 0 {
		return // shear by 0 preserves Q order; nothing can become dominated
	}
	keep := l.front
	if keep == nil {
		return
	}
	for nd := keep.next; nd != nil; {
		if nd.Q <= keep.Q {
			nd = l.remove(nd)
		} else {
			keep = nd
			nd = nd.next
		}
	}
}

// WireDelay is the Elmore delay r·(c/2 + cdown) of a wire driving cdown.
// (Duplicated from the delay package to keep this package dependency-free;
// both are covered by tests.)
func WireDelay(r, c, cdown float64) float64 { return r * (c/2 + cdown) }

// Merge combines the candidate lists of two sibling branches meeting at a
// vertex: a joint candidate has Q = min(Q_a, Q_b) and C = C_a + C_b. For a
// target Q the cheapest combination pairs the first candidate of each list
// with Q at least the target, so a two-pointer sweep over the Q-sorted lists
// emits all nonredundant joint candidates in O(len(a) + len(b)).
// The inputs are consumed (their nodes are not reused, but the lists should
// be discarded — Free them when arena-backed). The output allocates from
// the first input's arena (or the second's, if the first has none); with no
// arena, merge decisions are not recorded.
func Merge(a, b *List) *List {
	ar := a.ar
	if ar == nil {
		ar = b.ar
	}
	var out *List
	if ar != nil {
		out = ar.NewList()
	} else {
		out = &List{}
	}
	x, y := a.front, b.front
	for x != nil && y != nil {
		q := x.Q
		if y.Q < q {
			q = y.Q
		}
		c := x.C + y.C
		var dec DecRef
		if ar != nil {
			dec = ar.MergeDec(x.Dec, y.Dec)
		}
		if out.back != nil && out.back.C == c {
			// Same capacitance, strictly larger Q (q increases every
			// iteration): the new candidate dominates the previous one.
			out.back.Q = q
			out.back.Dec = dec
		} else {
			out.pushBack(out.newNode(q, c, dec))
		}
		if x.Q == q {
			x = x.next
		}
		if y.Q == q {
			y = y.next
		}
	}
	return out
}

// InsertOne inserts candidate (q, c, dec) into the list, maintaining
// nonredundancy, by linear scan — the O(k) per-candidate insertion the
// Lillis–Cheng–Lin baseline performs b times per buffer position. It
// reports whether the candidate survived (was not dominated).
func (l *List) InsertOne(q, c float64, dec DecRef) bool {
	// Find the last node with C < c (pred) while checking domination by any
	// node with C ≤ c.
	var pred *Node
	nd := l.front
	for nd != nil && nd.C < c {
		pred = nd
		nd = nd.next
	}
	if pred != nil && pred.Q >= q {
		return false // dominated by a cheaper-or-equal candidate
	}
	if nd != nil && nd.C == c && nd.Q >= q {
		return false
	}
	nn := l.newNode(q, c, dec)
	l.insertAfter(pred, nn)
	// Remove following candidates dominated by the new one (C ≥ c, Q ≤ q).
	for nd := nn.next; nd != nil && nd.Q <= q; {
		nd = l.remove(nd)
	}
	return true
}

// Beta is a buffered candidate generated at a buffer position: inserting
// library type Buffer at Vertex yields slack Q and presents capacitance C
// upstream. Its reconstruction decision is created lazily: callers either
// set Dec directly, or set SrcDec (the decision of the unbuffered candidate
// the buffer was applied to) and let MergeBetas materialize the record only
// if the beta survives insertion — most betas are dominated immediately,
// and skipping their records is a measurable win in the O(n) inner loop.
type Beta struct {
	Q, C   float64
	Buffer int
	Vertex int
	SrcDec DecRef
	Dec    DecRef
}

// decision returns the beta's reconstruction record, materializing it in ar
// on first use. With no arena the nil reference is carried through.
func (b *Beta) decision(ar *Arena) DecRef {
	if b.Dec == 0 && ar != nil {
		b.Dec = ar.BufferDec(b.Vertex, b.Buffer, b.SrcDec)
	}
	return b.Dec
}

// NormalizeBetas sorts-stability is the caller's concern: betas must arrive
// in non-decreasing C order (the paper pre-sorts the library by input
// capacitance once). NormalizeBetas collapses them to a strictly increasing
// (C, Q) sequence: among equal-C betas only the max-Q one survives, and any
// beta dominated by a cheaper beta is dropped. O(b).
func NormalizeBetas(betas []Beta) []Beta {
	out := betas[:0]
	for _, b := range betas {
		if len(out) > 0 {
			top := &out[len(out)-1]
			if b.C < top.C {
				panic("candidate: NormalizeBetas input not sorted by C")
			}
			if b.C == top.C {
				if b.Q > top.Q {
					*top = b
				}
				continue
			}
			if b.Q <= top.Q {
				continue
			}
		}
		out = append(out, b)
	}
	return out
}

// MergeBetas merges normalized betas (strictly increasing C and Q) into the
// list in a single forward pass — the paper's Theorem 2: O(k + b) because
// the insertion point only moves forward and every list node is removed at
// most once.
func (l *List) MergeBetas(betas []Beta) {
	var pred *Node // last kept node with C < current beta's C
	nd := l.front
	for i := range betas {
		b := &betas[i]
		for nd != nil && nd.C < b.C {
			pred = nd
			nd = nd.next
		}
		if pred != nil && pred.Q >= b.Q {
			continue // beta dominated
		}
		if nd != nil && nd.C == b.C && nd.Q >= b.Q {
			continue
		}
		nn := l.newNode(b.Q, b.C, b.decision(l.ar))
		l.insertAfter(pred, nn)
		// Drop list nodes the beta dominates.
		for nxt := nn.next; nxt != nil && nxt.Q <= b.Q; {
			nxt = l.remove(nxt)
		}
		pred = nn
		nd = nn.next
	}
}

// BestForR returns the candidate maximizing Q − r·C by full linear scan,
// breaking ties toward minimum C (the paper's definition of the best
// candidate α_i). This is the Lillis baseline's per-type O(k) search.
// Returns nil on an empty list.
func (l *List) BestForR(r float64) *Node {
	best := l.front
	if best == nil {
		return nil
	}
	bv := best.Q - r*best.C
	for nd := best.next; nd != nil; nd = nd.next {
		if v := nd.Q - r*nd.C; v > bv {
			best, bv = nd, v
		}
	}
	return best
}

// leftTurn reports whether the middle point b lies strictly above the chord
// a→c in the (C, Q) plane, i.e. slope(a→b) > slope(b→c). Points violating
// this (Eq. 2 of the paper) are convex-pruned.
func leftTurn(a, b, c *Node) bool {
	return (b.Q-a.Q)*(c.C-b.C) > (c.Q-b.Q)*(b.C-a.C)
}

// HullView returns the concave majorant of the list — the candidates
// surviving convex pruning — as a slice of node pointers, without modifying
// the list. Graham's scan over the already C-sorted list runs in O(k).
// Every maximizer of Q − r·C for any r ≥ 0 is on the hull (paper Lemma 3).
func (l *List) HullView() []*Node {
	return l.HullViewInto(make([]*Node, 0, l.n))
}

// HullViewInto is HullView reusing the caller's buffer to avoid per-call
// allocation in the O(n) inner loop of the core algorithm.
func (l *List) HullViewInto(buf []*Node) []*Node {
	hull := buf[:0]
	for nd := l.front; nd != nil; nd = nd.next {
		for len(hull) >= 2 && !leftTurn(hull[len(hull)-2], hull[len(hull)-1], nd) {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, nd)
	}
	return hull
}

// ConvexPruneInPlace removes every candidate not on the concave majorant
// from the list itself — the literal behaviour of the paper's printed
// Convexpruning C function, which frees pruned nodes. See DESIGN.md §4 for
// when this is lossless (2-pin nets) and when it is heuristic (multi-pin).
// Returns the number of candidates pruned.
func (l *List) ConvexPruneInPlace() int {
	pruned := 0
	if l.n < 3 {
		return 0
	}
	a := l.front
	b := a.next
	c := b.next
	for c != nil {
		if !leftTurn(a, b, c) {
			l.remove(b)
			pruned++
			// Move backward, as the paper's code does, since removing b can
			// expose a new reflex angle at a.
			if a.prev != nil {
				b = a
				a = a.prev
			} else {
				b = c
				c = c.next
			}
		} else {
			a = b
			b = c
			c = c.next
		}
	}
	return pruned
}

// Pair is a plain (Q, C) value used by tests and the SoA list.
type Pair struct {
	Q, C float64
}

// Pairs returns the candidates as a slice of pairs, front to back.
func (l *List) Pairs() []Pair {
	out := make([]Pair, 0, l.n)
	for nd := l.front; nd != nil; nd = nd.next {
		out = append(out, Pair{nd.Q, nd.C})
	}
	return out
}

// FromPairs builds an arena-less list from pairs that must already be
// strictly increasing in Q and C (panics otherwise); primarily for tests.
func FromPairs(ps []Pair) *List {
	l := &List{}
	for _, p := range ps {
		if l.back != nil && (p.Q <= l.back.Q || p.C <= l.back.C) {
			panic(fmt.Sprintf("candidate: FromPairs input not strictly increasing at (%g,%g)", p.Q, p.C))
		}
		l.pushBack(l.newNode(p.Q, p.C, 0))
	}
	return l
}

// Validate checks the list invariants: strictly increasing Q and C, finite
// values, consistent links and length.
func (l *List) Validate() error {
	count := 0
	var prev *Node
	for nd := l.front; nd != nil; nd = nd.next {
		if math.IsNaN(nd.Q) || math.IsNaN(nd.C) || math.IsInf(nd.Q, 0) || math.IsInf(nd.C, 0) {
			return fmt.Errorf("candidate: non-finite candidate (%g, %g)", nd.Q, nd.C)
		}
		if nd.prev != prev {
			return fmt.Errorf("candidate: broken prev link at index %d", count)
		}
		if prev != nil {
			if nd.Q <= prev.Q {
				return fmt.Errorf("candidate: Q not strictly increasing at index %d (%g after %g)", count, nd.Q, prev.Q)
			}
			if nd.C <= prev.C {
				return fmt.Errorf("candidate: C not strictly increasing at index %d (%g after %g)", count, nd.C, prev.C)
			}
		}
		prev = nd
		count++
	}
	if prev != l.back {
		return fmt.Errorf("candidate: back pointer mismatch")
	}
	if count != l.n {
		return fmt.Errorf("candidate: length %d != counted %d", l.n, count)
	}
	return nil
}
