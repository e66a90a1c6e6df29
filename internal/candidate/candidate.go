// Package candidate implements the (Q, C) candidate machinery shared by all
// buffer-insertion algorithms in this repository.
//
// A candidate for a subtree T_v is one way of buffering T_v, summarized by
// its slack Q (ps) and downstream capacitance C (fF) at v. Candidate α
// dominates α' when Q(α) ≥ Q(α') and C(α) ≤ C(α'). The set of nonredundant
// candidates, kept sorted, is strictly increasing in both Q and C.
//
// SoAList (soalist.go) stores such a set as packed parallel slabs and
// provides the three van Ginneken operations (add-wire, merge, insert)
// plus the paper's key device: Graham's scan over the C-sorted list, which
// builds the concave majorant of the (C, Q) points, because for every
// driving resistance R ≥ 0 the maximizer of Q − R·C lies on it. The hull
// is built as a read-only view (AppendHullInto); the list itself keeps
// every nonredundant candidate, which is what makes pruning exact on
// multi-pin nets (DESIGN.md §4). Every engine — internal/core (the
// paper's algorithm and the Lillis baseline) and the cost–slack extension
// internal/costopt — runs on SoAList; the tests hold it to brute-force
// references.
//
// Allocation model: reconstruction decisions are index-linked records in a
// per-run Arena (see arena.go) rather than individually heap-allocated
// nodes, and arena-backed lists draw their headers and slabs from the same
// arena, so the whole run's memory releases in O(1) and a warm arena
// allocates nothing.
package candidate

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

// Pair is a plain (Q, C) value.
type Pair struct {
	Q, C float64
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
