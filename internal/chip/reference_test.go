package chip

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"bufferkit/internal/core"
	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/tree"
)

// This file keeps the allocator's former cold path as a test reference:
// Solve, repair and the per-net solve as they were before every net ran on
// an incremental ECO session, with the session branches and the progress
// callbacks (OnRound, CompletedRounds, SolvedNets) removed. Each
// round re-solves every price-affected net from scratch on a warm engine,
// over a scratch tree clone whose zero-capacity sites (and, in the repair
// pass, saturated sites) are masked directly. TestChipSessionsMatchCold
// holds Solve to refSolve bit for bit.

// refState is the reference allocator's per-net working state.
type refState struct {
	net    *Net
	tr     *tree.Tree // scratch clone; zero-capacity sites pre-masked
	sites  []sited    // sited buffer positions, in vertex order
	pen    []float64  // per-vertex penalty of the last solve
	plc    delay.Placement
	slack  float64 // true (unpriced) slack of plc
	solved bool
}

// refSolver is one reference worker's solving kit: a warm engine plus
// scratch for results and slack evaluation.
type refSolver struct {
	eng *core.Engine
	res core.Result
	ev  delay.Evaluator
	opt core.Options
}

func newRefSolver() *refSolver {
	return &refSolver{eng: core.NewEngine()}
}

// solve runs the priced oracle on one net: prices folded in through
// SitePenalty (nil when every price on the net is zero, which keeps the
// unpriced round bit-identical to a plain Solver.Run), placement copied
// out of engine scratch, true slack re-derived without prices.
func (s *refSolver) solve(ctx context.Context, st *refState, lib library.Library, priced bool) error {
	s.opt.Driver = st.net.Driver
	s.opt.SitePenalty = nil
	if priced {
		s.opt.SitePenalty = st.pen
	}
	if err := s.eng.Reset(st.tr, lib, s.opt); err != nil {
		return err
	}
	if err := s.eng.RunContext(ctx, &s.res); err != nil {
		return err
	}
	st.plc = st.plc.Reuse(len(s.res.Placement))
	copy(st.plc, s.res.Placement)
	s.ev.Slack(st.tr, lib, st.plc, st.net.Driver)
	st.slack = s.ev.MinSlack
	st.solved = true
	return nil
}

// refSolve is the cold-path Solve: same pricing schedule, same repair
// pass, every re-solve from scratch.
func refSolve(ctx context.Context, inst *Instance, lib library.Library, cfg Config) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	caps := inst.Capacities(cfg.Capacity)
	nsites := len(caps)
	nnets := len(inst.Nets)

	// Per-net working state; zero-capacity sites are masked up front so
	// the oracle never places a buffer there.
	states := make([]refState, nnets)
	for i := range states {
		st := &states[i]
		net := &inst.Nets[i]
		st.net = net
		st.tr = net.Tree.Clone()
		st.pen = make([]float64, net.Tree.Len())
		for v, s := range net.Site {
			if s == NoSite {
				continue
			}
			st.sites = append(st.sites, sited{v, s})
			if caps[s] == 0 {
				st.tr.Verts[v].BufferOK = false
			}
		}
	}

	prices := make([]float64, nsites)
	pres := make([]float64, nsites) // reversible subgradient component
	hist := make([]float64, nsites) // monotone history component
	usage := make([]int, nsites)
	res := &Result{}
	step := cfg.Step
	workers := cfg.Workers
	if workers > nnets {
		workers = nnets
	}

	for round := 1; round <= cfg.Rounds; round++ {
		if round > 1 {
			// Projected subgradient update on the previous round's usage,
			// plus the non-decaying history term for persistent overflow.
			for s := range prices {
				over := usage[s] - caps[s]
				if p := pres[s] + step*float64(over); p > 0 {
					pres[s] = p
				} else {
					pres[s] = 0
				}
				if over > 0 {
					hist[s] += cfg.HistoryStep * float64(over)
				}
				prices[s] = hist[s] + pres[s]
			}
			step *= cfg.StepDecay
		}

		// Parallel re-solve of every net whose prices changed. Results are
		// written by net index, so the worker count never affects the
		// outcome.
		var next, resolved, solvedNow atomic.Int64
		errs := make([]error, nnets)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				sv := newRefSolver()
				for {
					i := int(next.Add(1)) - 1
					if i >= nnets || ctx.Err() != nil {
						return
					}
					st := &states[i]
					changed, priced := !st.solved, false
					for _, vs := range st.sites {
						p := prices[vs.s]
						if st.pen[vs.v] != p {
							st.pen[vs.v] = p
							changed = true
						}
						if p != 0 {
							priced = true
						}
					}
					if !changed {
						continue
					}
					resolved.Add(1)
					if err := sv.solve(ctx, st, lib, priced); err != nil {
						errs[i] = err
						if errors.Is(err, solvererr.ErrCanceled) {
							return
						}
						continue
					}
					solvedNow.Add(1)
				}
			}()
		}
		wg.Wait()

		for i, err := range errs {
			if err != nil && !errors.Is(err, solvererr.ErrCanceled) {
				return nil, fmt.Errorf("chip: net %d (%q): %w", i, inst.Nets[i].Name, err)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, &PartialError{
				CompletedRounds: round - 1,
				SolvedNets:      int(solvedNow.Load()),
				Err:             solvererr.Canceled(ctx),
			}
		}

		rec := refObserve(states, caps, prices, usage)
		rec.Round = round
		rec.Resolved = int(resolved.Load())
		res.Rounds = append(res.Rounds, rec)
		if rec.Overflow == 0 {
			break
		}
	}

	if last := &res.Rounds[len(res.Rounds)-1]; last.Overflow > 0 {
		rec, err := refRepair(ctx, states, lib, caps, prices, usage, &cfg)
		if err != nil {
			return nil, err
		}
		rec.Round = len(res.Rounds) + 1
		res.Rounds = append(res.Rounds, rec)
	}

	res.Feasible = true
	res.Usage = usage
	res.Prices = prices
	res.Placements = make([]delay.Placement, nnets)
	res.Slacks = make([]float64, nnets)
	res.WorstSlack = math.Inf(1)
	for i := range states {
		st := &states[i]
		res.Placements[i] = st.plc
		res.Slacks[i] = st.slack
		res.Buffers += st.plc.Count()
		res.TotalSlack += st.slack
		if st.slack < res.WorstSlack {
			res.WorstSlack = st.slack
			res.WorstNet = i
		}
	}
	return res, nil
}

// refObserve recomputes per-site usage from the current placements and
// summarizes the round.
func refObserve(states []refState, caps []int, prices []float64, usage []int) Round {
	clear(usage)
	rec := Round{WorstSlack: math.Inf(1)}
	for i := range states {
		st := &states[i]
		for _, vs := range st.sites {
			if st.plc[vs.v] != delay.NoBuffer {
				usage[vs.s]++
			}
		}
		rec.Buffers += st.plc.Count()
		rec.TotalSlack += st.slack
		if st.slack < rec.WorstSlack {
			rec.WorstSlack = st.slack
		}
	}
	for s := range usage {
		if over := usage[s] - caps[s]; over > 0 {
			rec.Overflow += over
			rec.OverflowSites++
			if over > rec.MaxOverflow {
				rec.MaxOverflow = over
			}
		}
		if prices[s] > rec.MaxPrice {
			rec.MaxPrice = prices[s]
		}
	}
	return rec
}

// refRepair is the cold-path repair pass: walk nets in index order and
// re-solve every net occupying an overfull site from scratch, with the
// sites saturated by the other nets masked out of its scratch tree.
func refRepair(ctx context.Context, states []refState, lib library.Library, caps []int, prices []float64, usage []int, cfg *Config) (Round, error) {
	sv := newRefSolver()
	rec := Round{Repair: true}
	for i := range states {
		st := &states[i]
		if ctx.Err() != nil {
			return rec, &PartialError{
				CompletedRounds: cfg.Rounds,
				SolvedNets:      rec.Resolved,
				Err:             solvererr.Canceled(ctx),
			}
		}
		over := false
		for _, vs := range st.sites {
			if st.plc[vs.v] != delay.NoBuffer && usage[vs.s] > caps[vs.s] {
				over = true
				break
			}
		}
		if !over {
			continue
		}
		priced := false
		for _, vs := range st.sites {
			if st.plc[vs.v] != delay.NoBuffer {
				usage[vs.s]--
			}
			st.tr.Verts[vs.v].BufferOK = usage[vs.s] < caps[vs.s]
			if st.pen[vs.v] = prices[vs.s]; st.pen[vs.v] != 0 {
				priced = true
			}
		}
		rec.Resolved++
		if err := sv.solve(ctx, st, lib, priced); err != nil {
			if errors.Is(err, solvererr.ErrCanceled) {
				return rec, &PartialError{
					CompletedRounds: cfg.Rounds,
					SolvedNets:      rec.Resolved - 1,
					Err:             err,
				}
			}
			return rec, fmt.Errorf("chip: repair: net %d (%q) has no capacity-feasible placement: %w",
				i, st.net.Name, err)
		}
		for _, vs := range st.sites {
			if st.plc[vs.v] != delay.NoBuffer {
				usage[vs.s]++
			}
		}
	}

	full := refObserve(states, caps, prices, usage)
	full.Round, full.Repair, full.Resolved = rec.Round, true, rec.Resolved
	if full.Overflow != 0 {
		return full, solvererr.Infeasible("chip: repair pass left overflow %d", full.Overflow)
	}
	return full, nil
}
