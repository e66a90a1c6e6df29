// Package core implements the paper's contribution: optimal buffer insertion
// with b buffer types in O(bn²) time (Li & Shi, DATE 2005).
//
// The structure is van Ginneken's bottom-up dynamic program. The speedup is
// entirely inside AddBuffer:
//
//  1. Convex-prune the candidate list (Graham's scan over the C-sorted
//     list, O(k)). Every best candidate — the maximizer of Q − R·C for any
//     buffer resistance R — survives (paper Lemma 3).
//  2. With the library pre-sorted by non-increasing driving resistance,
//     walk one pointer forward over the hull: on the concave majorant the
//     objective Q − R·C is unimodal (Lemma 4) and its maximizer moves
//     toward larger C as R decreases (Lemma 1), so finding the best
//     candidates of all b types costs O(k + b) total.
//  3. The b new buffered candidates, emitted in the pre-computed input-
//     capacitance order, merge back into the list in one O(k + b) pass
//     (Theorem 2).
//
// Everything else (add-wire O(k), merge O(k₁ + k₂)) is shared with the
// baselines, giving O(bn²) overall versus Lillis–Cheng–Lin's O(b²n²).
//
// Beyond the paper, the package supports inverting buffer types and sink
// polarity requirements by running the dynamic program on a pair of
// candidate lists (one per required arrival parity). Convex pruning is a
// read-only hull view that leaves the list intact, which keeps the
// algorithm exact on multi-pin nets; DESIGN.md §4 records why the paper's
// printed in-place pruning is not offered.
//
// Candidate lists are candidate.SoAList structure-of-arrays slabs; the
// paper treats the list structure as a constant-factor detail, and
// DESIGN.md §11 records the measurement behind the choice.
//
// Execution is split from construction: an Engine owns a decision Arena and
// every scratch buffer, Reset re-targets it at a net, and Run executes the
// dynamic program. A warm engine re-running on same-shaped nets performs
// zero steady-state heap allocations (asserted by
// testing.AllocsPerRun in the tests), which is what makes the batch API in
// the bufferkit facade scale across worker goroutines instead of across the
// garbage collector.
package core

import (
	"context"
	"errors"

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
	// CheckInvariants validates every candidate list after every operation.
	// For tests; roughly doubles runtime.
	CheckInvariants bool
	// SitePenalty, when non-nil, is a per-vertex slack penalty (ps): every
	// buffered candidate created at vertex v has SitePenalty[v] subtracted
	// from its Q. It is the hook the chip-scale allocator (internal/chip)
	// uses to fold Lagrangian site prices into the per-net oracle. The DP
	// then maximizes min over sinks of slack minus the summed penalties on
	// the path to that sink — exact pricing on 2-pin nets, a pessimistic
	// heuristic on multi-sink nets (the min at merges is not additive; see
	// DESIGN.md §14). nil (the default) is bit-identical to an all-zero
	// penalty vector at zero cost. Length must be at least the tree size,
	// and every entry finite and nonnegative.
	SitePenalty []float64
}

// Stats are instrumentation counters for one run.
type Stats struct {
	// Positions is the number of buffer positions processed.
	Positions int
	// MaxListLen is the largest candidate list length observed.
	MaxListLen int
	// SumListLen accumulates list length at each buffer position.
	SumListLen int
	// SumHullLen accumulates hull size at each buffer position.
	SumHullLen int
	// HullPruned counts candidates off the hull: skipped by the hull walk,
	// kept in the list.
	HullPruned int
	// BetasGenerated counts buffered candidates produced by the hull walk;
	// BetasKept counts those surviving normalization.
	BetasGenerated, BetasKept int
	// Decisions is the number of reconstruction records the arena holds at
	// the end of the run.
	Decisions int
	// ArenaBytes is the slab memory the engine's arena retains after the
	// run — the warm working-set footprint (slabs survive Reset).
	ArenaBytes int
}

// SameCounters reports whether two runs performed identical DP work:
// every counter equal, ignoring ArenaBytes — the footprint depends on slab
// warmth, not on the work performed.
func (s Stats) SameCounters(o Stats) bool {
	s.ArenaBytes, o.ArenaBytes = 0, 0
	return s == o
}

// Result is the outcome of a run.
type Result struct {
	// Slack is the optimal slack at the driver input, in ps.
	Slack float64
	// Placement maps vertex index to a library type index or -1.
	Placement delay.Placement
	// Candidates is the final candidate count at the root (positive-parity
	// list when polarity is active).
	Candidates int
	Stats      Stats
}

// Insert computes optimal buffer insertion on t with library lib — the
// single-shot entry point, paying construction on every call. Workloads
// that optimize many nets (or the same net repeatedly) should hold an
// Engine and Reset/Run it instead, or use a bufferkit.Solver.
func Insert(t *tree.Tree, lib library.Library, opt Options) (*Result, error) {
	e := NewEngine()
	if err := e.Reset(t, lib, opt); err != nil {
		return nil, err
	}
	res := &Result{}
	if err := e.Run(res); err != nil {
		return nil, err
	}
	return res, nil
}

// Engine is a reusable insertion engine. It owns one decision Arena plus
// every scratch buffer the dynamic program needs — hull buffers, beta
// slots, the per-vertex list table and the library orderings — none of
// which is reallocated across runs: Reset re-targets the engine at a
// (tree, library, options) triple and Run executes one run. A warm engine
// allocates nothing on the steady-state path.
//
// An Engine is not safe for concurrent use; use one per goroutine.
type Engine struct {
	arena *candidate.Arena

	t     *tree.Tree
	lib   library.Library
	opt   Options
	ready bool

	orderR  []int // type indices, driving resistance non-increasing
	cinRank []int // cinRank[type] = rank in input-capacitance order

	hull     [2]candidate.Hull   // packed hulls, per source parity
	betaSlot [2][]candidate.Beta // slotted by cin rank, per destination parity
	betaHas  [2][]bool
	betaOrd  [2][]candidate.Beta // cin-ordered betas, per destination parity

	lists []pair // per-vertex candidate state, reused across runs

	stats Stats
}

// NewEngine returns an engine with an empty arena. All scratch buffers are
// sized lazily by the first Reset.
func NewEngine() *Engine {
	return &Engine{arena: candidate.NewArena()}
}

// Reset points the engine at a new instance, revalidating the library and
// resizing scratch state. It does not run anything; call Run afterwards.
// Scratch buffers and arena slabs are kept, so resetting to a same-shaped
// instance allocates nothing.
func (e *Engine) Reset(t *tree.Tree, lib library.Library, opt Options) error {
	e.ready = false // a failed Reset must not leave a runnable stale instance
	if err := lib.Validate(); err != nil {
		return err
	}
	if opt.SitePenalty != nil {
		if err := checkPenalty(opt.SitePenalty, t.Len()); err != nil {
			return err
		}
	}
	if !lib.HasInverters() {
		for i := range t.Verts {
			if t.Verts[i].Kind == tree.Sink && t.Verts[i].Pol == tree.Negative {
				return solvererr.Validation("core", "polarity",
					"sink requires negative polarity but the library has no inverters").AtVertex(i)
			}
		}
	}
	e.t, e.opt = t, opt

	// Library orderings are recomputed only when the library changes
	// (compared by backing array identity), keeping warm resets free; the
	// change path may allocate, which is fine — it is paid once per
	// library, not per run.
	if !sameLibrary(e.lib, lib) {
		e.lib = lib
		b := len(lib)
		e.orderR = lib.ByRDesc()
		e.cinRank = candidate.Resize(e.cinRank, b)
		for rank, ti := range lib.ByCinAsc() {
			e.cinRank[ti] = rank
		}
		for s := 0; s < 2; s++ {
			e.betaSlot[s] = candidate.Resize(e.betaSlot[s], b)
			e.betaHas[s] = candidate.Resize(e.betaHas[s], b)
			clear(e.betaHas[s])
			e.betaOrd[s] = candidate.Resize(e.betaOrd[s], b)[:0]
		}
	}

	e.lists = candidate.Resize(e.lists, t.Len())
	e.ready = true
	return nil
}

// Release drops the engine's references to the last instance's tree and
// library (retaining arena slabs and scratch capacity), so pooled idle
// engines do not keep whole designs reachable. Reset makes the engine
// runnable again.
func (e *Engine) Release() {
	e.t, e.lib, e.opt = nil, nil, Options{}
	clear(e.lists)
	e.ready = false
}

// Run executes one insertion run on the instance set by Reset, writing the
// outcome into res. res.Placement is reused when its capacity suffices;
// everything else the run needs comes from the engine's arena, which is
// rewound (O(1)) at entry — so Run may be called repeatedly after one
// Reset, each call an independent run.
func (e *Engine) Run(res *Result) error {
	return e.RunContext(context.Background(), res)
}

// RunContext is Run under a context: the per-vertex loop polls ctx at a
// coarse grain (every solvererr.PollMask+1 vertices) and aborts with an error
// wrapping solvererr.ErrCanceled when it fires. With a background context
// the poll is a nil comparison per stride, so the warm path keeps its
// zero-allocation steady state.
func (e *Engine) RunContext(ctx context.Context, res *Result) error {
	if !e.ready {
		return errors.New("core: Run called before a successful Reset")
	}
	_, err := e.solve(ctx, res, nil, true)
	return err
}

// ResolveRetained executes one run that checkpoints every vertex's
// candidate frontier for incremental re-solving, recomputing only the
// vertices marked dirty (or everything when full is set, rewinding the
// arena first). It is the engine face of Session; see Session for the
// dirty-closure and rebuild-scheduling contract. It returns the number of
// vertices recomputed. Results are bit-identical to RunContext on the same
// instance. Interleaving RunContext (which rewinds the arena) with retained
// resolves invalidates the checkpoints; the next ResolveRetained must be
// full.
func (e *Engine) ResolveRetained(ctx context.Context, res *Result, dirty []bool, full bool) (int, error) {
	if !e.ready {
		return 0, errors.New("core: ResolveRetained called before a successful Reset")
	}
	return e.solve(ctx, res, dirty, full)
}

// Decisions returns the number of reconstruction records currently in the
// arena — the growth signal Session uses to schedule full rebuilds, since
// retained delta resolves append decision records without reclaiming
// superseded ones.
func (e *Engine) Decisions() int { return e.arena.NumDecisions() }
