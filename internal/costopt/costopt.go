// Package costopt extends the paper's algorithm to buffer-cost
// minimization — the "reduce buffer cost" application the paper defers to
// its journal version, in the style of Lillis–Cheng–Lin's resource-aware
// formulation and Shi–Li–Alpert (ASPDAC 2004).
//
// Candidates gain a third coordinate: the total integer cost W of the
// buffers used. The dynamic program keeps one nonredundant (Q, C) list per
// reachable cost level and returns the nondominated (cost, slack) frontier
// at the driver, each point with a witness placement. Within every level,
// AddBuffer is the paper's O(k + b) convex-pruning operation, so the whole
// algorithm is the paper's algorithm run per cost level — pseudo-polynomial
// in the total cost, exact for nonnegative integer costs.
package costopt

import (
	"context"
	"slices"
	"sort"

	"bufferkit/internal/candidate"
	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/tree"
)

// Options configure a run.
type Options struct {
	// Driver is the source driver; the zero value is an ideal driver.
	Driver delay.Driver
	// MaxCost caps the total buffer cost considered; 0 means unlimited.
	MaxCost int
}

// Point is one nondominated (cost, slack) solution.
type Point struct {
	Cost  int
	Slack float64
	// Placement is a witness achieving this point.
	Placement delay.Placement
}

// Pareto computes the cost–slack frontier, sorted by increasing cost with
// strictly increasing slack.
func Pareto(t *tree.Tree, lib library.Library, opt Options) ([]Point, error) {
	return ParetoContext(context.Background(), t, lib, opt)
}

// ParetoContext is Pareto under a context: the per-vertex loop polls ctx at
// a coarse grain and aborts with an error wrapping solvererr.ErrCanceled
// when it fires.
func ParetoContext(ctx context.Context, t *tree.Tree, lib library.Library, opt Options) ([]Point, error) {
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	if lib.HasInverters() {
		return nil, solvererr.Validation("costopt", "library", "inverting types not supported")
	}
	for i := range t.Verts {
		if t.Verts[i].Kind == tree.Sink && t.Verts[i].Pol == tree.Negative {
			return nil, solvererr.Validation("costopt", "polarity",
				"sink requires negative polarity; library has no inverters").AtVertex(i)
		}
	}

	e := &engine{
		t: t, lib: lib, opt: opt, ctx: ctx,
		arena:   candidate.NewArena(),
		orderR:  lib.ByRDesc(nil),
		cinRank: make([]int, len(lib)),
	}
	for rank, ti := range lib.ByCinAsc(nil) {
		e.cinRank[ti] = rank
	}
	return e.run()
}

// levels maps total buffer cost to its nonredundant candidate list.
type levels map[int]*candidate.SoAList

// sortedCosts returns the cost keys ascending.
func (lv levels) sortedCosts() []int {
	cs := make([]int, 0, len(lv))
	for c := range lv {
		cs = append(cs, c)
	}
	sort.Ints(cs)
	return cs
}

type engine struct {
	t       *tree.Tree
	lib     library.Library
	opt     Options
	ctx     context.Context
	arena   *candidate.Arena
	hull    candidate.Hull // reused across levels and vertices
	orderR  []int
	cinRank []int
}

func (e *engine) run() ([]Point, error) {
	lists := make([]levels, e.t.Len())
	for vi, v := range e.t.PostOrder() {
		if vi&solvererr.PollMask == 0 && e.ctx.Err() != nil {
			return nil, solvererr.Canceled(e.ctx)
		}
		vert := &e.t.Verts[v]
		if vert.Kind == tree.Sink {
			lists[v] = levels{0: e.arena.NewSoASink(vert.RAT, vert.Cap, v)}
			continue
		}
		var acc levels
		for _, c := range e.t.Children(v) {
			lc := lists[c]
			lists[c] = nil
			for _, l := range lc {
				l.AddWire(e.t.Verts[c].EdgeR, e.t.Verts[c].EdgeC)
			}
			if acc == nil {
				acc = lc
			} else {
				acc = mergeLevels(acc, lc, e.opt.MaxCost)
			}
		}
		if vert.BufferOK {
			e.addBuffer(v, acc, vert.Allowed)
		}
		e.crossLevelPrune(acc)
		lists[v] = acc
	}

	root := lists[0]
	var out []Point
	for _, w := range root.sortedCosts() {
		q, c, dec, _ := root[w].Best(e.opt.Driver.R)
		slack := q - e.opt.Driver.R*c - e.opt.Driver.K
		if len(out) > 0 && slack <= out[len(out)-1].Slack {
			continue // dominated by a cheaper level
		}
		p := delay.NewPlacement(e.t.Len())
		e.arena.Fill(dec, p)
		out = append(out, Point{Cost: w, Slack: slack, Placement: p})
	}
	return out, nil
}

// addBuffer runs the paper's hull walk once per cost level, routing each
// new buffered candidate to level W + cost(type).
func (e *engine) addBuffer(v int, acc levels, allowed []int) {
	type slotKey struct{ level, rank int }
	slots := map[slotKey]candidate.Beta{}
	h := &e.hull
	for _, w := range acc.sortedCosts() {
		l := acc[w]
		h.Reset()
		l.AppendHullInto(h)
		p, decPos := 0, 0
		for _, ti := range e.orderR {
			if len(allowed) > 0 && !slices.Contains(allowed, ti) {
				continue
			}
			b := e.lib[ti]
			nw := w + b.Cost
			if e.opt.MaxCost > 0 && nw > e.opt.MaxCost {
				continue
			}
			p = h.Walk(p, b.R)
			var srcDec candidate.DecRef
			srcDec, decPos = l.HullDec(h, p, decPos)
			beta := candidate.Beta{
				Q:      h.Q[p] - b.R*h.C[p] - b.K,
				C:      b.Cin,
				Buffer: ti,
				Vertex: v,
				SrcDec: srcDec,
			}
			key := slotKey{nw, e.cinRank[ti]}
			if old, ok := slots[key]; !ok || beta.Q > old.Q {
				slots[key] = beta
			}
		}
	}
	// Group betas by destination level, emit in cin order, merge.
	byLevel := map[int][]candidate.Beta{}
	for key, beta := range slots {
		byLevel[key.level] = append(byLevel[key.level], beta)
	}
	for nw, betas := range byLevel {
		sort.Slice(betas, func(i, j int) bool {
			if betas[i].C != betas[j].C {
				return betas[i].C < betas[j].C
			}
			return betas[i].Q > betas[j].Q
		})
		betas = candidate.NormalizeBetas(betas)
		if acc[nw] == nil {
			acc[nw] = e.arena.NewSoAList()
		}
		acc[nw].MergeBetas(betas)
	}
}

// mergeLevels combines two branch level-sets: every (Wa, Wb) pair merges
// into level Wa+Wb, with same-level results unioned. Pairs are visited in
// ascending cost order because a union keeps the earlier of two equal
// candidates: map order would make the witness placement vary run to run.
func mergeLevels(a, b levels, maxCost int) levels {
	out := levels{}
	bCosts := b.sortedCosts()
	for _, wa := range a.sortedCosts() {
		for _, wb := range bCosts {
			w := wa + wb
			if maxCost > 0 && w > maxCost {
				continue
			}
			m := candidate.MergeSoA(a[wa], b[wb])
			if cur, ok := out[w]; ok {
				union(cur, m)
				m.Free()
			} else {
				out[w] = m
			}
		}
	}
	// The input level lists are fully consumed.
	for _, la := range a {
		la.Free()
	}
	for _, lb := range b {
		lb.Free()
	}
	return out
}

// union inserts every candidate of src into dst, keeping dst nonredundant.
func union(dst, src *candidate.SoAList) {
	betas := make([]candidate.Beta, src.Len())
	for i := range betas {
		p := src.At(i)
		betas[i] = candidate.Beta{Q: p.Q, C: p.C, Dec: src.DecAt(i)}
	}
	dst.MergeBetas(betas)
}

// crossLevelPrune removes candidates dominated by any candidate at a
// cheaper (or equal, earlier-seen) level: processing levels in ascending
// cost order, a running frontier of the best (Q, C) pairs so far prunes
// each level, then absorbs it. Levels left empty are deleted.
func (e *engine) crossLevelPrune(acc levels) {
	costs := acc.sortedCosts()
	if len(costs) < 2 {
		return
	}
	frontier := e.arena.NewSoAList()
	for _, w := range costs {
		l := acc[w]
		l.RemoveDominated(frontier)
		if l.Len() == 0 {
			acc[w].Free()
			delete(acc, w)
			continue
		}
		union(frontier, l)
	}
	frontier.Free()
}
