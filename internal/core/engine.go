package core

import (
	"context"
	"fmt"
	"slices"

	"bufferkit/internal/candidate"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/tree"
)

// pair is the candidate state at one vertex: pair[0] holds candidates valid
// when the arriving signal has source polarity, pair[1] when inverted. In
// non-polar runs only slot 0 is used. A nil list means "no candidate of
// this parity exists".
type pair [2]*candidate.SoAList

// solve is van Ginneken's bottom-up dynamic program with the paper's
// O(k+b) add-buffer (Lillis's O(b·k) one under Options.Lillis), run on the
// instance set by Reset. It has two modes.
//
// A plain run (dirty == nil, full) consumes every child's list into its
// parent, leaving only the root's in e.lists.
//
// A retained run (dirty != nil) keeps every vertex's final candidate pair
// in e.lists as a checkpoint, so a later call can recompute only the
// vertices marked in dirty (which must be closed under "parent of a dirty
// vertex is dirty" — the Session guarantees this by marking whole
// vertex-to-root paths). Each child's checkpoint is cloned and the clone
// consumed, so the clone undergoes exactly the float operations a plain run
// performs on the original, in the same order: every candidate value — and
// therefore slack, placement and cost — is bit-identical to a plain run on
// the same instance (the ECO differential suite enforces this).
//
// full forces a from-scratch pass: the arena is rewound (invalidating every
// checkpoint and decision) and all vertices recompute. Delta passes append
// decision records without reclaiming superseded ones, so the Session
// schedules a full pass whenever the decision slab outgrows its
// post-rebuild baseline.
//
// The per-vertex loop polls ctx at a coarse grain (every
// solvererr.PollMask+1 vertices); with a background context the poll is a
// nil comparison per stride, so the warm path keeps its zero-allocation
// steady state. solve returns the number of vertices recomputed. After a
// retained-run error the checkpoint state is unspecified; the caller must
// force a full pass before trusting another resolve.
func (e *Engine) solve(ctx context.Context, res *Result, dirty []bool, full bool) (int, error) {
	retain := dirty != nil
	if full {
		e.arena.Reset()
		clear(e.lists)
	}
	e.stats = Stats{}
	recomputed := 0

	for vi, v := range e.t.PostOrder() {
		if vi&solvererr.PollMask == 0 && ctx.Err() != nil {
			return recomputed, solvererr.Canceled(ctx)
		}
		if !full && !dirty[v] {
			continue
		}
		recomputed++
		vert := &e.t.Verts[v]
		old := e.lists[v]
		if vert.Kind == tree.Sink {
			var p pair
			s := 0
			if vert.Pol == tree.Negative {
				s = 1
			}
			p[s] = e.arena.NewSoASink(vert.RAT, vert.Cap, v)
			e.lists[v] = p
			freeNil(old[0])
			freeNil(old[1])
			continue
		}
		var acc pair
		first := true
		for _, c := range e.t.Children(v) {
			lc := e.lists[c]
			if retain {
				for s := 0; s < 2; s++ {
					if lc[s] != nil {
						lc[s] = lc[s].Clone()
					}
				}
			} else {
				e.lists[c] = pair{}
			}
			r, wc := e.t.Verts[c].EdgeR, e.t.Verts[c].EdgeC
			for s := 0; s < 2; s++ {
				if lc[s] != nil {
					lc[s].AddWire(r, wc)
				}
			}
			if first {
				acc = lc
				first = false
			} else {
				for s := 0; s < 2; s++ {
					merged := mergeNil(acc[s], lc[s])
					freeNil(acc[s])
					freeNil(lc[s])
					acc[s] = merged
				}
			}
		}
		if acc[0] == nil && acc[1] == nil {
			return recomputed, solvererr.Infeasible("core: subtree at vertex %d has no polarity-feasible candidates", v)
		}
		if vert.BufferOK {
			e.stats.Positions++
			e.stats.SumListLen += lenNil(acc[0]) + lenNil(acc[1])
			if e.opt.Lillis {
				e.addBufferLillis(v, acc[0], vert.Allowed)
			} else {
				e.addBuffer(v, &acc, vert.Allowed)
			}
		}
		if err := e.check(&acc); err != nil {
			return recomputed, err
		}
		if n := lenNil(acc[0]) + lenNil(acc[1]); n > e.stats.MaxListLen {
			e.stats.MaxListLen = n
		}
		freeNil(old[0])
		freeNil(old[1])
		e.lists[v] = acc
	}

	root := e.lists[0][0]
	if root == nil || root.Len() == 0 {
		return recomputed, solvererr.Infeasible("core: no polarity-feasible solution at the source")
	}
	e.stats.Decisions = e.arena.NumDecisions()
	e.stats.ArenaBytes = e.arena.Bytes()

	res.Placement = res.Placement.Reuse(e.t.Len())
	res.Candidates = root.Len()
	res.Stats = e.stats
	q, c, dec, _ := root.Best(e.opt.Driver.R)
	res.Slack = q - e.opt.Driver.R*c - e.opt.Driver.K
	e.arena.Fill(dec, res.Placement)
	return recomputed, nil
}

// addBuffer is the paper's O(k + b) operation (plus a second parity in
// polar runs): materialize the concave majorant of each source list as a
// packed Hull, walk one monotone pointer per hull across the library in
// non-increasing R order (Lemmas 1 and 4), slot the surviving buffered
// candidates by input-capacitance rank, and merge them back in one pass
// (Theorem 2).
func (e *Engine) addBuffer(v int, acc *pair, allowed []int) {
	// Hulls of both source lists, before any new candidate lands.
	for s := 0; s < 2; s++ {
		h := &e.hull[s]
		h.Reset()
		l := acc[s]
		if l == nil || l.Len() == 0 {
			continue
		}
		l.AppendHullInto(h)
		e.stats.HullPruned += l.Len() - h.Len()
		e.stats.SumHullLen += h.Len()
	}

	// Per-vertex site price: a candidate buffered here starts its upstream
	// life with the price already paid. The nil path performs exactly the
	// original float operations, keeping unpriced runs bit-identical.
	penalty := 0.0
	if pen := e.opt.SitePenalty; pen != nil {
		penalty = pen[v]
	}

	// One monotone pointer per source hull, shared across all types since
	// the library is walked in non-increasing R order (Lemma 1). The walk
	// reads the packed hull arrays directly. decPos carries each parity's
	// decision-resolution cursor through HullDec (monotone alongside ptr).
	var ptr, decPos [2]int
	for _, ti := range e.orderR {
		if len(allowed) > 0 && !slices.Contains(allowed, ti) {
			continue
		}
		b := e.lib[ti]
		for src := 0; src < 2; src++ {
			h := &e.hull[src]
			if h.Len() == 0 {
				continue
			}
			p := h.Walk(ptr[src], b.R)
			ptr[src] = p
			dst := src
			if b.Inverting {
				dst = 1 - src
			}
			srcDec, cursor := acc[src].HullDec(h, p, decPos[src])
			decPos[src] = cursor
			q := h.Q[p] - b.R*h.C[p] - b.K
			if penalty != 0 {
				q -= penalty
			}
			beta := candidate.Beta{
				Q:      q,
				C:      b.Cin,
				Buffer: ti,
				Vertex: v,
				SrcDec: srcDec,
			}
			e.stats.BetasGenerated++
			// Slot by cin rank; keep the better Q on rank collision (two
			// types with equal Cin, or the same type reached from both
			// parities in degenerate cases).
			rank := e.cinRank[ti]
			if !e.betaHas[dst][rank] || beta.Q > e.betaSlot[dst][rank].Q {
				e.betaSlot[dst][rank] = beta
				e.betaHas[dst][rank] = true
			}
		}
	}

	// Emit betas in input-capacitance order (O(b)), normalize, merge.
	for dst := 0; dst < 2; dst++ {
		ord := e.betaOrd[dst][:0]
		for rank := 0; rank < len(e.lib); rank++ {
			if e.betaHas[dst][rank] {
				ord = append(ord, e.betaSlot[dst][rank])
				e.betaHas[dst][rank] = false
			}
		}
		e.betaOrd[dst] = ord
		if len(ord) == 0 {
			continue
		}
		ord = candidate.NormalizeBetas(ord)
		e.stats.BetasKept += len(ord)
		if acc[dst] == nil {
			acc[dst] = e.arena.NewSoAList()
		}
		acc[dst].MergeBetas(ord)
	}
}

// addBufferLillis is the Lillis–Cheng–Lin add-buffer, the O(b·k) step the
// paper removes: for each allowed type, in library order, a full scan of
// the list (Best) finds the type's best unbuffered candidate, and each
// buffered candidate is then inserted by its own O(k) pass (InsertOne).
// Every beta is generated from the list as it stood before the first
// insertion. Lillis runs are non-polar, so l is the source-parity list.
func (e *Engine) addBufferLillis(v int, l *candidate.SoAList, allowed []int) {
	betas := e.betaOrd[0][:0]
	for ti, b := range e.lib {
		if len(allowed) > 0 && !slices.Contains(allowed, ti) {
			continue
		}
		q, c, dec, ok := l.Best(b.R)
		if !ok {
			continue
		}
		betas = append(betas, candidate.Beta{
			Q:      q - b.R*c - b.K,
			C:      b.Cin,
			Buffer: ti,
			Dec:    e.arena.BufferDec(v, ti, dec),
		})
	}
	e.betaOrd[0] = betas
	e.stats.BetasGenerated += len(betas)
	for i := range betas {
		if l.InsertOne(betas[i].Q, betas[i].C, betas[i].Dec) {
			e.stats.BetasKept++
		}
	}
}

func (e *Engine) check(acc *pair) error {
	if !e.opt.CheckInvariants {
		return nil
	}
	for s := 0; s < 2; s++ {
		if acc[s] == nil {
			continue
		}
		if err := acc[s].Validate(); err != nil {
			return fmt.Errorf("core: invariant violation: %w", err)
		}
	}
	return nil
}

// mergeNil merges two branch lists of the same parity; if either branch
// offers no candidate of this parity, neither does the merge.
func mergeNil(a, b *candidate.SoAList) *candidate.SoAList {
	if a == nil || b == nil || a.Len() == 0 || b.Len() == 0 {
		return nil
	}
	return candidate.MergeSoA(a, b)
}

func lenNil(l *candidate.SoAList) int {
	if l == nil {
		return 0
	}
	return l.Len()
}

// freeNil returns a consumed branch list (and its storage) to the arena.
func freeNil(l *candidate.SoAList) {
	if l != nil {
		l.Free()
	}
}
