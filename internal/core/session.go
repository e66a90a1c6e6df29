package core

import (
	"context"
	"math"

	"bufferkit/internal/library"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/tree"
)

// Delta is one typed ECO perturbation a Session can absorb. Implementations
// validate fully before mutating anything, so Session.Patch applies a batch
// atomically: an invalid delta rejects the whole batch and leaves the
// session untouched.
type Delta interface {
	validate(s *Session) error
	apply(s *Session)
}

// SinkDelta sets a sink's required arrival time and load capacitance
// (absolute values, not increments).
type SinkDelta struct {
	// Vertex indexes the sink in the session's tree.
	Vertex int
	// RAT is the new required arrival time in ps.
	RAT float64
	// Cap is the new load capacitance in fF.
	Cap float64
}

// EdgeDelta sets the resistance and capacitance of the wire from Vertex's
// parent to Vertex (absolute values).
type EdgeDelta struct {
	// Vertex is the downstream endpoint of the edge (any non-root vertex).
	Vertex int
	// R is the new wire resistance in kΩ; C the new capacitance in fF.
	R, C float64
}

// BufferDelta sets whether a vertex is a legal buffer position and,
// optionally, restricts the library types allowed there (nil Allowed =
// every type).
type BufferDelta struct {
	// Vertex indexes a non-sink vertex in the session's tree.
	Vertex int
	// OK is the new BufferOK flag.
	OK bool
	// Allowed is the new per-vertex type restriction (copied; nil allows
	// every library type).
	Allowed []int
}

// PenaltyDelta sets the per-vertex site-penalty vector — the chip
// allocator's channel for Lagrangian price updates. Only vertices whose
// penalty actually changes (and that are live buffer sites) dirty the
// session, so a round that re-prices a handful of sites re-solves only
// those sites' root paths.
type PenaltyDelta struct {
	// Penalty is the full penalty vector, length at least the tree size,
	// every entry finite and nonnegative. Values are copied into the
	// session's own vector.
	Penalty []float64
}

// SessionStats instrument a session's resolve history.
type SessionStats struct {
	// Resolves counts Resolve calls (including failed ones).
	Resolves int
	// FullRebuilds counts resolves that recomputed every vertex — the
	// first resolve, resolves after an error, and decision-slab compactions.
	FullRebuilds int
	// LastRecomputed is the number of vertices the last resolve recomputed.
	LastRecomputed int
}

// Session is an incremental ECO re-solver for one net: it owns a private
// clone of the tree, a dedicated engine whose arena retains every vertex's
// candidate frontier as a checkpoint, and a dirty-bit vector marking the
// vertices whose checkpoints a patch invalidated. Patch applies typed
// deltas to the clone and marks the perturbed vertex-to-root paths dirty;
// Resolve recomputes exactly the dirty vertices bottom-up, reusing
// checkpointed sibling frontiers at every merge, and is bit-identical —
// slack, placement, cost — to a cold Engine run on the patched tree.
//
// Delta resolves append decision records without reclaiming superseded
// ones, so when the arena's decision count outgrows a multiple of the
// post-rebuild baseline the session schedules a full rebuild (arena rewind
// plus from-scratch resolve), bounding memory at a constant factor of a
// cold run. Steady-state patch+resolve cycles allocate nothing.
//
// A Session is not safe for concurrent use.
type Session struct {
	t   *tree.Tree
	lib library.Library
	opt Options
	eng *Engine

	pen    []float64
	dirty  []bool
	full   bool
	maxDec int

	closed bool
	stats  SessionStats
}

// NewSession validates the instance and opens a session on a private clone
// of t. opt.SitePenalty, when non-nil, seeds the session's own penalty
// vector (later updated through PenaltyDelta).
func NewSession(t *tree.Tree, lib library.Library, opt Options) (*Session, error) {
	s := &Session{
		t:   t.Clone(),
		lib: lib,
		eng: NewEngine(),
	}
	s.pen = make([]float64, s.t.Len())
	if opt.SitePenalty != nil {
		if len(opt.SitePenalty) < s.t.Len() {
			return nil, solvererr.Validation("core", "site_penalty",
				"penalty vector length %d < tree size %d", len(opt.SitePenalty), s.t.Len())
		}
		copy(s.pen, opt.SitePenalty)
	}
	opt.SitePenalty = s.pen // session-owned; all-zero is bit-identical to nil
	s.opt = opt
	if err := s.eng.Reset(s.t, lib, opt); err != nil {
		return nil, err
	}
	s.dirty = make([]bool, s.t.Len())
	s.full = true
	return s, nil
}

// Tree exposes the session's private tree clone — the patched instance a
// cold run must use to reproduce Resolve bit for bit. Callers must treat it
// as read-only; all mutation goes through Patch.
func (s *Session) Tree() *tree.Tree { return s.t }

// Penalty exposes the session's current site-penalty vector — together with
// Tree, the full instance a cold run must use to reproduce Resolve bit for
// bit. Callers must treat it as read-only; updates go through PenaltyDelta.
func (s *Session) Penalty() []float64 { return s.pen }

// Stats returns the session's resolve instrumentation.
func (s *Session) Stats() SessionStats { return s.stats }

// Patch applies a batch of deltas atomically: every delta is validated
// against the current tree before any is applied, so an invalid delta
// returns a *solvererr.ValidationError and leaves the session unchanged
// and usable.
func (s *Session) Patch(deltas ...Delta) error {
	if s.closed {
		return solvererr.Validation("core", "session", "session is closed")
	}
	for _, d := range deltas {
		if err := d.validate(s); err != nil {
			return err
		}
	}
	for _, d := range deltas {
		d.apply(s)
	}
	return nil
}

// PatchSink is Patch(SinkDelta{...}) without the interface boxing — the
// synthesis-loop hot path (perturb one sink, re-solve) stays allocation-
// free end to end.
func (s *Session) PatchSink(vertex int, rat, cap float64) error {
	if s.closed {
		return solvererr.Validation("core", "session", "session is closed")
	}
	d := SinkDelta{Vertex: vertex, RAT: rat, Cap: cap}
	if err := d.validate(s); err != nil {
		return err
	}
	d.apply(s)
	return nil
}

// PatchBufferOK flips one vertex's buffer-position flag, preserving its
// Allowed restriction — the chip repair pass's site-masking primitive.
// Like PatchSink, it avoids the Delta interface boxing.
func (s *Session) PatchBufferOK(vertex int, ok bool) error {
	if s.closed {
		return solvererr.Validation("core", "session", "session is closed")
	}
	if vertex < 0 || vertex >= s.t.Len() {
		return solvererr.Validation("core", "delta", "buffer delta vertex %d out of range [0, %d)", vertex, s.t.Len())
	}
	v := &s.t.Verts[vertex]
	if v.Kind == tree.Sink {
		return solvererr.Validation("core", "delta", "buffer delta targets a sink").AtVertex(vertex)
	}
	if v.BufferOK == ok {
		return nil
	}
	v.BufferOK = ok
	s.markDirty(vertex)
	return nil
}

// PatchPenalty is Patch(PenaltyDelta{...}) without the interface boxing —
// the chip allocator's per-round price-update path stays allocation-free.
func (s *Session) PatchPenalty(penalty []float64) error {
	if s.closed {
		return solvererr.Validation("core", "session", "session is closed")
	}
	d := PenaltyDelta{Penalty: penalty}
	if err := d.validate(s); err != nil {
		return err
	}
	d.apply(s)
	return nil
}

// Resolve re-solves the patched instance into res, recomputing only the
// dirty vertex-to-root paths (everything on the first call, after a failed
// resolve, or when the decision slab needs compacting). The outcome is
// bit-identical to a cold Engine run on the patched tree; errors are the
// engine's (ErrInfeasible, ErrCanceled, invariant violations). After an
// error the session stays usable — the next Resolve runs full.
func (s *Session) Resolve(ctx context.Context, res *Result) error {
	if s.closed {
		return solvererr.Validation("core", "session", "session is closed")
	}
	full := s.full || s.eng.Decisions() > s.maxDec
	s.full = true // stays poisoned unless this resolve succeeds
	s.stats.Resolves++
	n, err := s.eng.ResolveRetained(ctx, res, s.dirty, full)
	s.stats.LastRecomputed = n
	if err != nil {
		return err
	}
	s.full = false
	clear(s.dirty)
	if full {
		s.stats.FullRebuilds++
		baseline := s.eng.Decisions()
		s.maxDec = 4*baseline + 4096
	}
	return nil
}

// Close releases the session's engine state. Further Patch/Resolve calls
// fail.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.eng.Release()
}

// markDirty marks v and its ancestors dirty, stopping at the first vertex
// already marked: Patch only ever dirties whole vertex-to-root paths, so a
// dirty vertex implies a dirty parent (the closure ResolveRetained's skip
// logic relies on).
func (s *Session) markDirty(v int) {
	for v >= 0 && !s.dirty[v] {
		s.dirty[v] = true
		v = s.t.Verts[v].Parent
	}
}

func (d SinkDelta) validate(s *Session) error {
	if d.Vertex < 0 || d.Vertex >= s.t.Len() {
		return solvererr.Validation("core", "delta", "sink delta vertex %d out of range [0, %d)", d.Vertex, s.t.Len())
	}
	if s.t.Verts[d.Vertex].Kind != tree.Sink {
		return solvererr.Validation("core", "delta", "sink delta targets non-sink vertex").AtVertex(d.Vertex)
	}
	if math.IsNaN(d.RAT) || math.IsInf(d.RAT, 0) {
		return solvererr.Validation("core", "delta", "sink delta RAT must be finite").AtVertex(d.Vertex)
	}
	if !(d.Cap >= 0) || math.IsInf(d.Cap, 0) {
		return solvererr.Validation("core", "delta", "sink delta capacitance must be finite and non-negative").AtVertex(d.Vertex)
	}
	return nil
}

func (d SinkDelta) apply(s *Session) {
	v := &s.t.Verts[d.Vertex]
	if v.RAT == d.RAT && v.Cap == d.Cap {
		return
	}
	v.RAT, v.Cap = d.RAT, d.Cap
	s.markDirty(d.Vertex)
}

func (d EdgeDelta) validate(s *Session) error {
	if d.Vertex < 1 || d.Vertex >= s.t.Len() {
		return solvererr.Validation("core", "delta", "edge delta vertex %d out of range [1, %d)", d.Vertex, s.t.Len())
	}
	if !(d.R >= 0) || math.IsInf(d.R, 0) || !(d.C >= 0) || math.IsInf(d.C, 0) {
		return solvererr.Validation("core", "delta", "edge delta R and C must be finite and non-negative").AtVertex(d.Vertex)
	}
	return nil
}

func (d EdgeDelta) apply(s *Session) {
	v := &s.t.Verts[d.Vertex]
	if v.EdgeR == d.R && v.EdgeC == d.C {
		return
	}
	v.EdgeR, v.EdgeC = d.R, d.C
	// The wire is applied when the *parent* wires-and-merges this child's
	// checkpoint, so the child's own frontier is untouched.
	s.markDirty(v.Parent)
}

func (d BufferDelta) validate(s *Session) error {
	if d.Vertex < 0 || d.Vertex >= s.t.Len() {
		return solvererr.Validation("core", "delta", "buffer delta vertex %d out of range [0, %d)", d.Vertex, s.t.Len())
	}
	if s.t.Verts[d.Vertex].Kind == tree.Sink {
		return solvererr.Validation("core", "delta", "buffer delta targets a sink").AtVertex(d.Vertex)
	}
	for _, ti := range d.Allowed {
		if ti < 0 || ti >= len(s.lib) {
			return solvererr.Validation("core", "delta", "buffer delta allowed type %d out of range [0, %d)", ti, len(s.lib)).AtVertex(d.Vertex)
		}
	}
	return nil
}

func (d BufferDelta) apply(s *Session) {
	v := &s.t.Verts[d.Vertex]
	same := v.BufferOK == d.OK && len(v.Allowed) == len(d.Allowed)
	if same {
		for i := range d.Allowed {
			if v.Allowed[i] != d.Allowed[i] {
				same = false
				break
			}
		}
	}
	if same {
		return
	}
	v.BufferOK = d.OK
	if d.Allowed == nil {
		v.Allowed = nil
	} else {
		v.Allowed = append(v.Allowed[:0:0], d.Allowed...)
	}
	s.markDirty(d.Vertex)
}

func (d PenaltyDelta) validate(s *Session) error { return checkPenalty(d.Penalty, s.t.Len()) }

// checkPenalty validates a site-penalty vector for a tree of n vertices:
// at least n entries, each a finite nonnegative price. A NaN or infinite
// price would otherwise propagate into the slack as a misleading verdict.
func checkPenalty(pen []float64, n int) error {
	if len(pen) < n {
		return solvererr.Validation("core", "site_penalty", "penalty vector length %d < tree size %d", len(pen), n)
	}
	for v, p := range pen[:n] {
		if !(p >= 0) || math.IsInf(p, 1) {
			return solvererr.Validation("core", "site_penalty", "penalty %g must be finite and nonnegative", p).AtVertex(v)
		}
	}
	return nil
}

func (d PenaltyDelta) apply(s *Session) {
	for v := 0; v < s.t.Len(); v++ {
		if s.pen[v] == d.Penalty[v] {
			continue
		}
		s.pen[v] = d.Penalty[v]
		// The penalty is read only where a buffer may be placed; elsewhere
		// the update is recorded but dirties nothing (a later BufferDelta
		// enabling the site dirties the path itself).
		if s.t.Verts[v].BufferOK {
			s.markDirty(v)
		}
	}
}
