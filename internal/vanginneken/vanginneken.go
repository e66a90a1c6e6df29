// Package vanginneken implements the classic O(n²) optimal buffer insertion
// algorithm for a single buffer type (L.P.P.P. van Ginneken, ISCAS 1990).
//
// It is the historical baseline the paper builds on and doubles as an
// independent cross-check: its candidate lists are plain sorted slices
// with their own add-wire, merge and add-buffer, not candidate.SoAList
// (it shares only the decision arena), so agreement with internal/core —
// both the paper's algorithm and the Lillis baseline — on b = 1 instances
// is meaningful evidence of correctness.
package vanginneken

import (
	"context"
	"slices"

	"bufferkit/internal/candidate"
	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/tree"
)

// Result is the outcome of a run.
type Result struct {
	// Slack is the optimal slack at the driver input, in ps.
	Slack float64
	// Placement maps vertex index to 0 (the single buffer type) or -1.
	Placement delay.Placement
	// Candidates is the final candidate count at the root.
	Candidates int
	// MaxListLen is the largest candidate list seen during the run.
	MaxListLen int
}

// cand is a slice-backed candidate.
type cand struct {
	q, c float64
	dec  candidate.DecRef
}

// Insert computes optimal buffer insertion on t with the single buffer type
// buf and driver drv.
func Insert(t *tree.Tree, buf library.Buffer, drv delay.Driver) (*Result, error) {
	return InsertContext(context.Background(), t, buf, drv)
}

// InsertContext is Insert under a context: the per-vertex loop polls ctx at
// a coarse grain and aborts with an error wrapping solvererr.ErrCanceled
// when it fires.
func InsertContext(ctx context.Context, t *tree.Tree, buf library.Buffer, drv delay.Driver) (*Result, error) {
	if err := (library.Library{buf}).Validate(); err != nil {
		return nil, err
	}
	if buf.Inverting {
		return nil, solvererr.Validation("vanginneken", "library", "single-type algorithm cannot use an inverter")
	}
	for i := range t.Verts {
		v := &t.Verts[i]
		if v.Kind == tree.Sink && v.Pol == tree.Negative {
			return nil, solvererr.Validation("vanginneken", "polarity",
				"sink requires negative polarity; library has no inverters").AtVertex(i)
		}
		if v.BufferOK && len(v.Allowed) > 0 && !slices.Contains(v.Allowed, 0) {
			return nil, solvererr.Validation("vanginneken", "allowed",
				"vertex restricts away the only buffer type").AtVertex(i)
		}
	}

	ar := candidate.NewArena()
	res := &Result{Placement: delay.NewPlacement(t.Len())}
	lists := make([][]cand, t.Len())
	for vi, v := range t.PostOrder() {
		if vi&solvererr.PollMask == 0 && ctx.Err() != nil {
			return nil, solvererr.Canceled(ctx)
		}
		vert := &t.Verts[v]
		if vert.Kind == tree.Sink {
			lists[v] = []cand{{q: vert.RAT, c: vert.Cap, dec: ar.SinkDec(v)}}
			continue
		}
		var cur []cand
		for _, c := range t.Children(v) {
			lc := lists[c]
			lists[c] = nil
			lc = addWire(lc, t.Verts[c].EdgeR, t.Verts[c].EdgeC)
			if cur == nil {
				cur = lc
			} else {
				cur = merge(ar, cur, lc)
			}
		}
		if vert.BufferOK {
			cur = addBuffer(ar, cur, buf, v)
		}
		if len(cur) > res.MaxListLen {
			res.MaxListLen = len(cur)
		}
		lists[v] = cur
	}

	root := lists[0]
	res.Candidates = len(root)
	best := root[0]
	bv := best.q - drv.R*best.c
	for _, cd := range root[1:] {
		if v := cd.q - drv.R*cd.c; v > bv {
			best, bv = cd, v
		}
	}
	res.Slack = bv - drv.K
	ar.Fill(best.dec, res.Placement)
	return res, nil
}

// addWire applies the Elmore wire transform and re-prunes dominated
// candidates (see candidate.SoAList.AddWire for the derivation).
func addWire(l []cand, r, c float64) []cand {
	for i := range l {
		l[i].q -= r*(c/2) + r*l[i].c
		l[i].c += c
	}
	if r == 0 {
		return l
	}
	out := l[:1]
	for _, cd := range l[1:] {
		if cd.q > out[len(out)-1].q {
			out = append(out, cd)
		}
	}
	return out
}

// merge combines two branch lists: Q = min, C = sum, two-pointer sweep.
func merge(ar *candidate.Arena, a, b []cand) []cand {
	out := make([]cand, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		q := a[i].q
		if b[j].q < q {
			q = b[j].q
		}
		c := a[i].c + b[j].c
		dec := ar.MergeDec(a[i].dec, b[j].dec)
		if len(out) > 0 && out[len(out)-1].c == c {
			out[len(out)-1] = cand{q, c, dec}
		} else {
			out = append(out, cand{q, c, dec})
		}
		if a[i].q == q {
			i++
		}
		if b[j].q == q {
			j++
		}
	}
	return out
}

// addBuffer generates the single buffered candidate from the best unbuffered
// candidate (max Q − R·C, ties toward min C) and inserts it.
func addBuffer(ar *candidate.Arena, l []cand, buf library.Buffer, vertex int) []cand {
	best := 0
	bv := l[0].q - buf.R*l[0].c
	for i := 1; i < len(l); i++ {
		if v := l[i].q - buf.R*l[i].c; v > bv {
			best, bv = i, v
		}
	}
	nc := cand{
		q:   bv - buf.K,
		c:   buf.Cin,
		dec: ar.BufferDec(vertex, 0, l[best].dec),
	}
	return insertCand(l, nc)
}

// insertCand inserts nc into the (Q, C)-sorted nonredundant slice, dropping
// it if dominated and dropping existing candidates it dominates.
func insertCand(l []cand, nc cand) []cand {
	out := make([]cand, 0, len(l)+1)
	i := 0
	for ; i < len(l) && l[i].c < nc.c; i++ {
		out = append(out, l[i])
	}
	if len(out) > 0 && out[len(out)-1].q >= nc.q {
		return append(out, l[i:]...) // dominated by a cheaper candidate
	}
	if i < len(l) && l[i].c == nc.c && l[i].q >= nc.q {
		return append(out, l[i:]...) // dominated by an equal-C candidate
	}
	out = append(out, nc)
	for ; i < len(l) && l[i].q <= nc.q; i++ {
		// skip candidates the new one dominates
	}
	return append(out, l[i:]...)
}
