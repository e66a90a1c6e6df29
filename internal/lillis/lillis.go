// Package lillis implements the Lillis–Cheng–Lin extension of van Ginneken's
// algorithm to b buffer types (IEEE JSSC 1996) — the O(b²n²) baseline the
// paper measures against.
//
// Its AddBuffer operation is the quadratic-in-b step the paper removes: for
// each of the b types it scans the whole candidate list (O(bk)) to find the
// best unbuffered candidate, and then inserts each of the b new candidates
// by an O(k) linear-scan insertion (another O(bk)).
//
// Like internal/core, the baseline exposes a reusable Engine with the same
// arena-backed allocation discipline over the same candidate.SoAList
// representation, so benchmark comparisons between the two algorithms
// measure the algorithms, not their memory management.
package lillis

import (
	"context"
	"slices"

	"bufferkit/internal/candidate"
	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/tree"
)

// Stats are instrumentation counters for one run.
type Stats struct {
	// Positions is the number of buffer positions processed.
	Positions int
	// MaxListLen is the largest candidate list length observed.
	MaxListLen int
	// SumListLen accumulates list length at every buffer position, for
	// average-length analysis (why runtime looks linear in b in practice).
	SumListLen int
	// BetasInserted counts buffered candidates that survived insertion.
	BetasInserted int
}

// Result is the outcome of a run.
type Result struct {
	// Slack is the optimal slack at the driver input, in ps.
	Slack float64
	// Placement maps vertex index to a library type index or -1.
	Placement delay.Placement
	// Candidates is the final candidate count at the root.
	Candidates int
	Stats      Stats
}

// Engine is a reusable Lillis engine: one decision arena plus the
// per-vertex list table and beta scratch, all kept across runs. Not safe
// for concurrent use.
type Engine struct {
	arena *candidate.Arena
	lists []*candidate.SoAList
	betas []candidate.Beta
}

// NewEngine returns an engine with an empty arena.
func NewEngine() *Engine {
	return &Engine{arena: candidate.NewArena()}
}

// Insert computes optimal buffer insertion on t with library lib and driver
// drv. Inverting types and negative-polarity sinks are not supported by this
// baseline (matching the paper's experimental setup); use internal/core for
// polarity-aware insertion.
func Insert(t *tree.Tree, lib library.Library, drv delay.Driver) (*Result, error) {
	res := &Result{}
	if err := NewEngine().Run(t, lib, drv, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Run is Insert on a reused engine, writing into a caller-owned Result and
// reusing res.Placement when its capacity suffices. A warm engine runs
// allocation-free.
func (e *Engine) Run(t *tree.Tree, lib library.Library, drv delay.Driver, res *Result) error {
	return e.RunContext(context.Background(), t, lib, drv, res)
}

// RunContext is Run under a context: the per-vertex loop polls ctx at a
// coarse grain and aborts with an error wrapping solvererr.ErrCanceled
// when it fires.
func (e *Engine) RunContext(ctx context.Context, t *tree.Tree, lib library.Library, drv delay.Driver, res *Result) error {
	if err := lib.Validate(); err != nil {
		return err
	}
	if lib.HasInverters() {
		return solvererr.Validation("lillis", "library", "inverting types not supported; use internal/core")
	}
	for i := range t.Verts {
		if t.Verts[i].Kind == tree.Sink && t.Verts[i].Pol == tree.Negative {
			return solvererr.Validation("lillis", "polarity",
				"sink requires negative polarity; library has no inverters").AtVertex(i)
		}
	}

	e.arena.Reset()
	n := t.Len()
	e.lists = candidate.Resize(e.lists, n)
	clear(e.lists)
	e.betas = candidate.Resize(e.betas, len(lib))[:0]
	res.Placement = res.Placement.Reuse(n)
	res.Stats = Stats{}

	lists := e.lists
	for vi, v := range t.PostOrder() {
		if vi&solvererr.PollMask == 0 && ctx.Err() != nil {
			return solvererr.Canceled(ctx)
		}
		vert := &t.Verts[v]
		if vert.Kind == tree.Sink {
			lists[v] = e.arena.NewSoASink(vert.RAT, vert.Cap, v)
			continue
		}
		var cur *candidate.SoAList
		for _, c := range t.Children(v) {
			lc := lists[c]
			lists[c] = nil
			lc.AddWire(t.Verts[c].EdgeR, t.Verts[c].EdgeC)
			if cur == nil {
				cur = lc
			} else {
				m := candidate.MergeSoA(cur, lc)
				cur.Free()
				lc.Free()
				cur = m
			}
		}
		if vert.BufferOK {
			res.Stats.Positions++
			res.Stats.SumListLen += cur.Len()
			e.betas = addBuffer(e.arena, cur, lib, vert.Allowed, v, e.betas[:0])
			for i := range e.betas {
				if cur.InsertOne(e.betas[i].Q, e.betas[i].C, e.betas[i].Dec) {
					res.Stats.BetasInserted++
				}
			}
		}
		if cur.Len() > res.Stats.MaxListLen {
			res.Stats.MaxListLen = cur.Len()
		}
		lists[v] = cur
	}

	root := lists[0]
	res.Candidates = root.Len()
	q, c, dec, _ := root.Best(drv.R)
	res.Slack = q - drv.R*c - drv.K
	e.arena.Fill(dec, res.Placement)
	return nil
}

// addBuffer generates one buffered candidate per allowed type by a full
// linear scan of the list — the O(b·k) step.
func addBuffer(ar *candidate.Arena, l *candidate.SoAList, lib library.Library, allowed []int, vertex int, out []candidate.Beta) []candidate.Beta {
	for ti := range lib {
		if len(allowed) > 0 && !slices.Contains(allowed, ti) {
			continue
		}
		b := lib[ti]
		q, c, dec, ok := l.Best(b.R)
		if !ok {
			continue
		}
		out = append(out, candidate.Beta{
			Q:      q - b.R*c - b.K,
			C:      b.Cin,
			Buffer: ti,
			Dec:    ar.BufferDec(vertex, ti, dec),
		})
	}
	return out
}
