package chip

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"bufferkit/internal/core"
	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/tree"
)

// Config parameterizes a Solve.
type Config struct {
	// Rounds is the pricing-round budget (default 48). The repair pass, if
	// needed, runs once after the budget regardless.
	Rounds int
	// Step is the initial subgradient step size: the price increment per
	// unit of site overflow, in ps (default 8).
	Step float64
	// StepDecay multiplies the step after every pricing round (default
	// 0.9); values in (0, 1] are legal.
	StepDecay float64
	// HistoryStep is the PathFinder-style history increment: every round a
	// site is overflowed adds HistoryStep·overflow to a price floor that
	// never decays (default 4, in ps). The reversible subgradient component
	// resolves transient contention; the history term breaks the integer
	// oscillations the subgradient cannot (marginal nets flipping between
	// two sites as the price crosses their indifference point). Negative
	// disables it; 0 selects the default.
	HistoryStep float64
	// Capacity, when positive, overrides the instance grid's default
	// per-site capacity. Blockages stay at capacity 0.
	Capacity int
	// Workers caps the per-round solve concurrency; 0 or negative means
	// runtime.GOMAXPROCS(0).
	Workers int
	// CheckInvariants enables per-operation candidate-list validation in
	// every oracle run (for tests; roughly doubles runtime).
	CheckInvariants bool
	// GetEngine and PutEngine, when both non-nil, borrow warm core engines
	// from a caller-owned pool — the bufferkit facade wires its shared
	// engine pool in here. They are used only on the cold-solve path
	// (NoSessions); ECO sessions own a dedicated engine per net.
	GetEngine func() *core.Engine
	PutEngine func(*core.Engine)
	// NoSessions disables the per-net incremental ECO sessions and re-solves
	// every price-affected net from scratch each round — the pre-session
	// cold path, kept as a differential reference (the two paths are
	// bit-identical round for round, asserted by TestChipSessionsMatchCold)
	// and as a low-memory fallback: sessions retain each net's candidate
	// frontiers between rounds.
	NoSessions bool
	// OnRound, when non-nil, is called with each round's convergence
	// record as soon as the round completes, from the coordinating
	// goroutine — the server streams these as NDJSON.
	OnRound func(Round)
	// CompletedRounds and SolvedNets, when non-nil, are incremented as
	// rounds finish and as individual oracle solves finish within the
	// current round, so callers (the server's partial-progress counters)
	// can observe progress across a deadline abort.
	CompletedRounds *atomic.Int64
	SolvedNets      *atomic.Int64
}

func (c *Config) fill() {
	if c.Rounds <= 0 {
		c.Rounds = 48
	}
	if c.Step <= 0 {
		c.Step = 8
	}
	if c.StepDecay <= 0 || c.StepDecay > 1 {
		c.StepDecay = 0.9
	}
	if c.HistoryStep == 0 {
		c.HistoryStep = 4
	} else if c.HistoryStep < 0 {
		c.HistoryStep = 0
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// Round is one price-and-resolve round's convergence record.
type Round struct {
	// Round numbers rounds from 1.
	Round int `json:"round"`
	// Repair marks the final sequential repair pass.
	Repair bool `json:"repair,omitempty"`
	// Resolved is the number of nets re-solved this round (nets whose
	// site prices did not change are skipped).
	Resolved int `json:"resolved"`
	// Overflow is the total buffer count over capacity, summed over sites;
	// OverflowSites counts sites over capacity and MaxOverflow the worst
	// single site. Overflow 0 means the allocation is feasible.
	Overflow      int `json:"overflow"`
	OverflowSites int `json:"overflow_sites"`
	MaxOverflow   int `json:"max_overflow"`
	// Buffers is the total number of buffers placed across all nets.
	Buffers int `json:"buffers"`
	// MaxPrice is the largest site price after this round's update.
	MaxPrice float64 `json:"max_price"`
	// TotalSlack and WorstSlack summarize the true (unpriced) per-net
	// slacks of the current placements.
	TotalSlack float64 `json:"total_slack"`
	WorstSlack float64 `json:"worst_slack"`
}

// Result is the outcome of a Solve.
type Result struct {
	// Feasible reports whether the final allocation respects every site
	// capacity. Solve only returns Feasible results (infeasibility is an
	// error), so this is true on success.
	Feasible bool
	// Rounds holds every round's convergence record, in order; the last
	// entry may be the repair pass.
	Rounds []Round
	// Placements and Slacks hold each net's final placement and true
	// (unpriced) slack, indexed like Instance.Nets.
	Placements []delay.Placement
	Slacks     []float64
	// Usage and Prices are the final per-site buffer counts and Lagrangian
	// prices.
	Usage  []int
	Prices []float64
	// Buffers is the total number of buffers placed.
	Buffers int
	// TotalSlack sums Slacks; WorstSlack/WorstNet identify the minimum.
	TotalSlack float64
	WorstSlack float64
	WorstNet   int
}

// PartialError reports a Solve aborted by context cancellation, with the
// progress made before the abort. It wraps the cancellation cause, so
// errors.Is(err, solvererr.ErrCanceled) still holds.
type PartialError struct {
	// CompletedRounds counts fully finished pricing rounds; SolvedNets
	// counts oracle solves completed inside the aborted round.
	CompletedRounds, SolvedNets int
	// Err is the underlying cancellation error.
	Err error
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("chip: allocation aborted after %d rounds (+%d net solves): %v",
		e.CompletedRounds, e.SolvedNets, e.Err)
}

// Unwrap exposes the cancellation cause to errors.Is / errors.As.
func (e *PartialError) Unwrap() error { return e.Err }

// sited is one (vertex, site) pair of a net.
type sited struct{ v, s int }

// netState is the allocator's per-net working state.
type netState struct {
	net    *Net
	tr     *tree.Tree    // scratch clone; zero-capacity sites pre-masked
	sess   *core.Session // incremental re-solver (nil under NoSessions)
	sites  []sited       // sited buffer positions, in vertex order
	pen    []float64     // per-vertex penalty of the last solve
	plc    delay.Placement
	slack  float64 // true (unpriced) slack of plc
	solved bool
}

// solver is one worker's solving kit: scratch for results and slack
// evaluation, plus a warm engine on the cold (NoSessions) path — sessions
// carry their own engines, so session-mode workers skip the engine
// entirely.
type solver struct {
	eng *core.Engine
	put func(*core.Engine)
	res core.Result
	ev  delay.Evaluator
	opt core.Options
}

func newSolver(cfg *Config) *solver {
	s := &solver{opt: core.Options{CheckInvariants: cfg.CheckInvariants}}
	if !cfg.NoSessions {
		return s
	}
	if cfg.GetEngine != nil && cfg.PutEngine != nil {
		s.eng, s.put = cfg.GetEngine(), cfg.PutEngine
	} else {
		s.eng = core.NewEngine()
	}
	return s
}

func (s *solver) release() {
	if s.eng == nil {
		return
	}
	s.eng.Release()
	if s.put != nil {
		s.put(s.eng)
	}
	s.eng = nil
}

// solve runs the priced oracle on one net: prices folded in through
// SitePenalty (nil when every price on the net is zero, which keeps the
// unpriced round bit-identical to a plain Solver.Run), placement copied
// out of engine scratch, true slack re-derived without prices.
func (s *solver) solve(ctx context.Context, st *netState, lib library.Library, priced bool) error {
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

// solveSession is solve over the net's incremental session: the round's
// price vector lands as a penalty patch (dirtying only re-priced live
// sites), repair masks have already been patched in by the caller, and
// Resolve recomputes just the dirty vertex-to-root paths. Bit-identical to
// solve on the same state — the session contract — so the allocator's
// convergence trajectory is exactly the cold path's.
func (s *solver) solveSession(ctx context.Context, st *netState, lib library.Library) error {
	if err := st.sess.PatchPenalty(st.pen); err != nil {
		return err
	}
	if err := st.sess.Resolve(ctx, &s.res); err != nil {
		return err
	}
	st.plc = st.plc.Reuse(len(s.res.Placement))
	copy(st.plc, s.res.Placement)
	s.ev.Slack(st.tr, lib, st.plc, st.net.Driver)
	st.slack = s.ev.MinSlack
	st.solved = true
	return nil
}

// Solve runs price-and-resolve allocation on inst with library lib.
//
// Round 1 solves every net at zero prices (the unconstrained optimum).
// Each later round updates prices by a projected subgradient step on the
// per-site overflow — price(s) ← max(0, price(s) + step·(usage(s) −
// cap(s))) with a geometrically decaying step — and re-solves, in
// parallel, exactly the nets whose prices changed. If the round budget
// ends with overflow remaining, a deterministic sequential repair pass
// re-solves every net touching an overfull site with saturated sites
// masked out of its scratch tree, which either reaches zero overflow or
// proves a net unplaceable (an error wrapping solvererr.ErrInfeasible —
// the guaranteed terminal answer for, e.g., nets whose every inverter
// site is blocked).
//
// The result is deterministic for a given instance and configuration:
// per-round placements are stored by net index and the repair pass is
// sequential, so the worker count never changes the outcome. On
// cancellation the error is a *PartialError wrapping solvererr.ErrCanceled.
func Solve(ctx context.Context, inst *Instance, lib library.Library, cfg Config) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	caps := inst.Capacities(cfg.Capacity)
	nsites := len(caps)
	nnets := len(inst.Nets)

	// Per-net working state; zero-capacity sites are masked up front so
	// the oracle never places a buffer there — and a net that *needs* one
	// (a polarity-constrained net with every inverter site blocked) fails
	// fast with a typed infeasibility instead of chasing prices forever.
	// Unless disabled, every net also gets an incremental ECO session
	// (opened on the masked scratch tree, so the session's private clone
	// carries the masks): rounds then patch prices and re-solve only the
	// re-priced sites' root paths instead of re-running the whole net.
	states := make([]netState, nnets)
	defer func() {
		for i := range states {
			if states[i].sess != nil {
				states[i].sess.Close()
			}
		}
	}()
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
		if !cfg.NoSessions {
			sess, err := core.NewSession(st.tr, lib, core.Options{
				Driver:          net.Driver,
				CheckInvariants: cfg.CheckInvariants,
			})
			if err != nil {
				return nil, fmt.Errorf("chip: net %d (%q): %w", i, net.Name, err)
			}
			st.sess = sess
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
				sv := newSolver(&cfg)
				defer sv.release()
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
					var err error
					if st.sess != nil {
						err = sv.solveSession(ctx, st, lib)
					} else {
						err = sv.solve(ctx, st, lib, priced)
					}
					if err != nil {
						errs[i] = err
						if errors.Is(err, solvererr.ErrCanceled) {
							return
						}
						continue
					}
					solvedNow.Add(1)
					if cfg.SolvedNets != nil {
						cfg.SolvedNets.Add(1)
					}
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

		rec := observe(states, caps, prices, usage)
		rec.Round = round
		rec.Resolved = int(resolved.Load())
		res.Rounds = append(res.Rounds, rec)
		if cfg.CompletedRounds != nil {
			cfg.CompletedRounds.Add(1)
		}
		if cfg.OnRound != nil {
			cfg.OnRound(rec)
		}
		if rec.Overflow == 0 {
			break
		}
	}

	if last := &res.Rounds[len(res.Rounds)-1]; last.Overflow > 0 {
		rec, err := repair(ctx, states, lib, caps, prices, usage, &cfg)
		if err != nil {
			return nil, err
		}
		rec.Round = len(res.Rounds) + 1
		res.Rounds = append(res.Rounds, rec)
		if cfg.CompletedRounds != nil {
			cfg.CompletedRounds.Add(1)
		}
		if cfg.OnRound != nil {
			cfg.OnRound(rec)
		}
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

// observe recomputes per-site usage from the current placements and
// summarizes the round.
func observe(states []netState, caps []int, prices []float64, usage []int) Round {
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

// repair is the deterministic end-game: walk nets in index order, and for
// every net occupying an overfull site, re-solve it with all sites that are
// saturated by the *other* nets masked out, committing usage as it goes.
// New placements only ever use spare capacity, so when the pass completes
// every site is within capacity — or some net has no capacity-feasible
// placement at all, which is a typed infeasibility.
func repair(ctx context.Context, states []netState, lib library.Library, caps []int, prices []float64, usage []int, cfg *Config) (Round, error) {
	sv := newSolver(cfg)
	defer sv.release()
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
		// Withdraw this net's buffers, mask sites with no capacity left
		// for it, and re-solve under the current prices (they still steer
		// it toward uncontended sites among the unmasked ones). The
		// session, when present, absorbs the masks through PatchBufferOK —
		// which preserves each site's Allowed restriction — and the prices
		// through solveSession's penalty patch; the scratch tree is kept in
		// sync regardless so both solve paths see one instance.
		priced := false
		for _, vs := range st.sites {
			if st.plc[vs.v] != delay.NoBuffer {
				usage[vs.s]--
			}
			ok := usage[vs.s] < caps[vs.s]
			st.tr.Verts[vs.v].BufferOK = ok
			if st.sess != nil {
				if perr := st.sess.PatchBufferOK(vs.v, ok); perr != nil {
					return rec, fmt.Errorf("chip: repair: net %d (%q): %w", i, st.net.Name, perr)
				}
			}
			if st.pen[vs.v] = prices[vs.s]; st.pen[vs.v] != 0 {
				priced = true
			}
		}
		rec.Resolved++
		var err error
		if st.sess != nil {
			err = sv.solveSession(ctx, st, lib)
		} else {
			err = sv.solve(ctx, st, lib, priced)
		}
		if err != nil {
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

	full := observe(states, caps, prices, usage)
	full.Round, full.Repair, full.Resolved = rec.Round, true, rec.Resolved
	if full.Overflow != 0 {
		// Unreachable by construction; fail loudly rather than report a
		// feasible allocation that is not.
		return full, solvererr.Infeasible("chip: repair pass left overflow %d", full.Overflow)
	}
	return full, nil
}
