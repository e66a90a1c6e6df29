package bufferkit

import (
	"context"
	"io"

	"bufferkit/internal/chip"
	"bufferkit/internal/core"
	"bufferkit/internal/solvererr"
)

// Chip-scale multi-net types, re-exported from internal/chip.
type (
	// ChipInstance is a multi-net buffered-routing problem over one shared
	// site grid.
	ChipInstance = chip.Instance
	// ChipGrid is the W×H buffer-site grid with a default per-site capacity.
	ChipGrid = chip.Grid
	// ChipBlockage is an inclusive capacity-0 cell rectangle on the grid.
	ChipBlockage = chip.Blockage
	// ChipNet is one routing tree competing for sites; ChipNet.Site maps
	// vertex index to site ID (or NoSite).
	ChipNet = chip.Net
	// ChipResult is the outcome of SolveChip: per-net placements and slacks,
	// per-site usage and prices, and the per-round convergence trace.
	ChipResult = chip.Result
	// ChipRound is one price-and-resolve round's convergence record.
	ChipRound = chip.Round
	// PartialChipError reports a chip solve aborted mid-run by cancellation,
	// with completed-round and solved-net counts. It wraps ErrCanceled.
	PartialChipError = chip.PartialError
	// ChipGenOpts parameterize GenerateChip instances.
	ChipGenOpts = chip.GenOpts
)

// NoSite marks a vertex with no site constraint in ChipNet.Site.
const NoSite = chip.NoSite

// GenerateChip builds a seeded multi-net instance over a shared site grid:
// 2-pin nets routed as L-shaped Manhattan paths with every intermediate
// site a buffer position, and a ChipGenOpts.Contention-controlled fraction
// of nets detoured through the grid center so they compete for sites.
func GenerateChip(o ChipGenOpts) *ChipInstance { return chip.Generate(o) }

// ParseChipInstance reads the JSON chip instance format (cmd/netgen -chip
// emits it; see internal/chip's file format documentation).
func ParseChipInstance(r io.Reader) (*ChipInstance, error) { return chip.ParseInstance(r) }

// WriteChipInstance writes an instance ParseChipInstance reproduces exactly.
func WriteChipInstance(w io.Writer, inst *ChipInstance) error { return chip.WriteInstance(w, inst) }

// chipConfig collects the SolveChip options on a Solver. Zero fields defer
// to internal/chip's defaults.
type chipConfig struct {
	rounds   int
	step     float64
	decay    float64
	history  float64
	capacity int
	onRound  func(ChipRound)
}

// WithChipRounds sets SolveChip's pricing-round budget (default 48). The
// deterministic repair pass still runs after the budget if needed.
func WithChipRounds(n int) Option {
	return func(s *Solver) error {
		if n < 0 {
			return solvererr.Validation("bufferkit", "rounds", "round budget %d must be nonnegative", n)
		}
		s.chip.rounds = n
		return nil
	}
}

// WithChipStep sets the initial subgradient step size in ps per unit of
// site overflow (default 8).
func WithChipStep(step float64) Option {
	return func(s *Solver) error {
		if step < 0 {
			return solvererr.Validation("bufferkit", "step", "step %g must be nonnegative", step)
		}
		s.chip.step = step
		return nil
	}
}

// WithChipStepDecay sets the per-round multiplicative step decay, in
// (0, 1] (default 0.9).
func WithChipStepDecay(decay float64) Option {
	return func(s *Solver) error {
		if decay < 0 || decay > 1 {
			return solvererr.Validation("bufferkit", "step_decay", "step decay %g must be in (0, 1]", decay)
		}
		s.chip.decay = decay
		return nil
	}
}

// WithChipHistoryStep sets the PathFinder-style history increment added to
// a site's permanent price floor per unit of overflow per round (default
// 4). Negative disables the history term.
func WithChipHistoryStep(h float64) Option {
	return func(s *Solver) error { s.chip.history = h; return nil }
}

// WithChipCapacity overrides the instance grid's default per-site capacity
// (0 keeps the instance's own; blockages stay at capacity 0).
func WithChipCapacity(c int) Option {
	return func(s *Solver) error {
		if c < 0 {
			return solvererr.Validation("bufferkit", "capacity", "site capacity %d must be nonnegative", c)
		}
		s.chip.capacity = c
		return nil
	}
}

// WithChipProgress sets a callback invoked with each round's convergence
// record as soon as the round completes, from SolveChip's coordinating
// goroutine — the server streams these as NDJSON.
func WithChipProgress(fn func(ChipRound)) Option {
	return func(s *Solver) error { s.chip.onRound = fn; return nil }
}

// SolveChip solves a multi-net instance over the shared site grid by
// Lagrangian price-and-resolve: every round re-solves the nets whose site
// prices changed, in parallel over the solver's warm engine pool
// (WithWorkers), with per-site prices folded into the dynamic program;
// prices then rise by a decaying subgradient step on each site's overflow
// plus a permanent PathFinder-style history increment. When the pricing
// budget ends with overflow, a deterministic sequential repair pass
// re-solves the offending nets with saturated sites masked, so a non-error
// result is always capacity-feasible.
//
// Drivers come from each ChipNet.Driver, not WithDriver. A single net under
// unbounded capacity reproduces Run bit for bit (asserted by the
// differential suite). Cancellation returns a
// *PartialChipError wrapping ErrCanceled; an instance where some net has no
// capacity-feasible placement returns an error wrapping ErrInfeasible.
// See DESIGN.md §14.
func (s *Solver) SolveChip(ctx context.Context, inst *ChipInstance) (*ChipResult, error) {
	if err := s.requireCore("chip solving"); err != nil {
		return nil, err
	}
	for i := range inst.Nets {
		if inst.Nets[i].Tree == nil {
			break // chip.Solve's validation reports this with the net name
		}
		if err := s.checkReducible(inst.Nets[i].Tree); err != nil {
			return nil, err
		}
	}
	res, err := chip.Solve(ctx, inst, s.cfg.Library, chip.Config{
		Rounds:          s.chip.rounds,
		Step:            s.chip.step,
		StepDecay:       s.chip.decay,
		HistoryStep:     s.chip.history,
		Capacity:        s.chip.capacity,
		Workers:         s.workers,
		CheckInvariants: s.cfg.CheckInvariants,
		GetEngine:       func() *core.Engine { return enginePool.Get().(*core.Engine) },
		PutEngine:       func(e *core.Engine) { enginePool.Put(e) },
		OnRound:         s.chip.onRound,
	})
	if res != nil {
		for i := range res.Placements {
			s.remapPlacement(res.Placements[i])
		}
	}
	return res, err
}
