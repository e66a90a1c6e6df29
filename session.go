package bufferkit

import (
	"context"

	"bufferkit/internal/core"
	"bufferkit/internal/solvererr"
)

// Delta is one typed ECO perturbation a Session absorbs; the concrete
// types are SinkDelta, EdgeDelta, BufferDelta and PenaltyDelta.
type Delta = core.Delta

// SinkDelta sets a sink's required arrival time and load (absolute values).
type SinkDelta = core.SinkDelta

// EdgeDelta sets the R/C of the wire into a vertex (absolute values).
type EdgeDelta = core.EdgeDelta

// BufferDelta sets a vertex's buffer-position flag and optional per-vertex
// allowed-type restriction.
type BufferDelta = core.BufferDelta

// PenaltyDelta sets the per-vertex site-penalty vector (the chip
// allocator's price channel).
type PenaltyDelta = core.PenaltyDelta

// SessionStats instrument a session's resolve history.
type SessionStats = core.SessionStats

// Session is an incremental ECO re-solver for one net. It owns a private
// clone of the tree and a dedicated warm engine whose arena retains every
// vertex's candidate frontier; Patch applies typed deltas and marks the
// perturbed vertex-to-root paths dirty, and Resolve recomputes exactly
// those paths, reusing checkpointed sibling frontiers at every merge. The
// result of every Resolve is bit-identical — slack, placement, cost — to a
// cold Solver.Run on the identically patched net (enforced by the ECO
// differential suite), at a cost proportional to the
// dirty region instead of the whole tree.
//
// Patch is chainable and sticky: an invalid delta rejects its whole batch
// atomically (the session state is untouched), and the error surfaces from
// the next Resolve, after which the session is usable again. A Session is
// not safe for concurrent use; it is independent of its Solver's lock, so
// many sessions may resolve in parallel.
type Session struct {
	solver *Solver
	cs     *core.Session
	err    error
}

// NewSession opens an incremental ECO session on net t. Sessions run on
// the core engine, so the solver's algorithm must be the paper's (the
// default); the session follows the solver's library, driver and
// invariant-checking configuration.
func (s *Solver) NewSession(t *Tree) (*Session, error) {
	if err := s.requireCore("ECO sessions"); err != nil {
		return nil, err
	}
	if err := s.checkReducible(t); err != nil {
		return nil, err
	}
	cs, err := core.NewSession(t, s.cfg.Library, core.Options{
		Driver:          s.cfg.Driver,
		CheckInvariants: s.cfg.CheckInvariants,
	})
	if err != nil {
		return nil, err
	}
	return &Session{solver: s, cs: cs}, nil
}

// Patch applies a batch of deltas atomically: every delta is validated
// before any is applied, so an invalid delta leaves the session unchanged.
// The first error sticks to the session and is reported by the next
// Resolve (or Err), keeping call chains `session.Patch(d).Resolve(ctx)`
// ergonomic.
func (ss *Session) Patch(deltas ...Delta) *Session {
	if ss.err != nil {
		return ss
	}
	if ss.solver.libMap != nil {
		for _, d := range deltas {
			if bd, ok := d.(BufferDelta); ok && bd.Allowed != nil {
				ss.err = solvererr.Validation("bufferkit", "allowed",
					"vertex %d restricts allowed types by original library index; incompatible with WithLibraryReduction", bd.Vertex)
				return ss
			}
		}
	}
	if err := ss.cs.Patch(deltas...); err != nil {
		ss.err = err
	}
	return ss
}

// Err returns the sticky error of a failed Patch, without clearing it.
func (ss *Session) Err() error { return ss.err }

// Resolve re-solves the patched net, recomputing only the dirty
// vertex-to-root paths (everything on the first call or after an error).
// A sticky Patch error is returned — and cleared, the rejected batch never
// having touched the session — instead of resolving. Engine errors
// (ErrInfeasible, ErrCanceled) leave the session usable; the next Resolve
// recomputes from scratch.
func (ss *Session) Resolve(ctx context.Context) (*NetResult, error) {
	if ss.err != nil {
		err := ss.err
		ss.err = nil
		return nil, err
	}
	res := &core.Result{} // fresh per call: callers keep their results
	if err := ss.cs.Resolve(ctx, res); err != nil {
		return nil, err
	}
	nr := &NetResult{Slack: res.Slack, Placement: res.Placement, Candidates: res.Candidates}
	if ss.solver.cfg.CollectStats {
		nr.Stats = res.Stats
	}
	ss.solver.remapPlacement(nr.Placement)
	return nr, nil
}

// Stats returns the session's resolve instrumentation (resolve count, full
// rebuilds, vertices recomputed by the last resolve).
func (ss *Session) Stats() SessionStats { return ss.cs.Stats() }

// Tree exposes the session's private patched tree — the instance a cold
// Run must use to reproduce the next Resolve bit for bit (bufferkitd
// serializes it for the result cache's coherence key). Callers must treat
// it as read-only; all mutation goes through Patch.
func (ss *Session) Tree() *Tree { return ss.cs.Tree() }

// Close releases the session's engine state. Further use fails.
func (ss *Session) Close() { ss.cs.Close() }
