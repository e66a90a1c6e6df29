package variation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"bufferkit/internal/core"
	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/tree"
)

// Config parameterizes a Sweep.
type Config struct {
	// Corners are the corners to evaluate, in order. Corner 0 is the
	// reference corner: non-robust selection returns its optimal placement.
	// At least one corner is required; Sweep validates all of them.
	Corners []Corner
	// Driver is the (nominal) source driver; corners do not perturb it.
	Driver delay.Driver
	// CheckInvariants enables per-operation candidate-list validation in
	// every per-corner engine run (for tests; roughly doubles runtime).
	CheckInvariants bool
	// Target is the slack threshold (ps) a sample must meet to count as
	// yielding; 0 means "meets every sink's RAT exactly".
	Target float64
	// Robust selects the placement maximizing fixed-placement yield across
	// all corners instead of the reference corner's optimum.
	Robust bool
	// Workers caps the sweep's concurrency; 0 or negative means
	// runtime.GOMAXPROCS(0).
	Workers int
	// GetEngine and PutEngine, when both non-nil, borrow warm core engines
	// from a caller-owned pool instead of constructing fresh ones — the
	// bufferkit facade wires its shared engine pool in here.
	GetEngine func() *core.Engine
	PutEngine func(*core.Engine)
	// Completed, when non-nil, is incremented once per finished sample
	// while the sweep runs, so callers (the server's partial-progress
	// counters) can observe progress across a deadline abort.
	Completed *atomic.Int64
}

func (c Config) workers() int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(c.Corners) {
		w = len(c.Corners)
	}
	return w
}

// Sample is the outcome of re-optimizing the net under one corner.
type Sample struct {
	// Corner is the evaluated corner.
	Corner Corner
	// Slack is the optimal slack under this corner, in ps.
	Slack float64
	// CriticalSink is the sink vertex attaining that slack.
	CriticalSink int
	// Placement indexes Result.Placements: which distinct optimal
	// placement this corner chose.
	Placement int
}

// Distribution summarizes a slack sample set.
type Distribution struct {
	Mean, Std, Min, Max float64
	// P5, P50 and P95 are order statistics (nearest-rank).
	P5, P50, P95 float64
}

// PlacementGroup is one distinct optimal placement observed during a sweep,
// with its quality as a fixed placement re-evaluated under every corner.
type PlacementGroup struct {
	// Placement is the buffer assignment.
	Placement delay.Placement
	// Count is how many corners chose this placement as their optimum.
	Count int
	// Cost is the total library cost of the placement.
	Cost int
	// Yield is the fraction of corners whose slack meets the target when
	// this placement is fixed across all of them.
	Yield float64
	// WorstSlack and MeanSlack are the fixed-placement slack extremes
	// across all corners.
	WorstSlack, MeanSlack float64
}

// Result is the outcome of a corner sweep.
type Result struct {
	// Target echoes Config.Target.
	Target float64
	// Robust echoes Config.Robust.
	Robust bool
	// Samples holds one entry per corner, in corner order.
	Samples []Sample
	// Dist summarizes the per-corner optimal slacks.
	Dist Distribution
	// OptimalYield is the fraction of corners whose re-optimized slack
	// meets the target — an upper bound no fixed placement can beat.
	OptimalYield float64
	// WorstSample indexes the corner with the smallest optimal slack.
	WorstSample int
	// Placements are the distinct optimal placements, in order of first
	// appearance (so group 0 is always the reference corner's optimum).
	Placements []PlacementGroup
	// Chosen indexes Placements: the reference optimum, or the yield
	// maximizer in robust mode.
	Chosen int
	// Placement is Placements[Chosen].Placement.
	Placement delay.Placement
	// Yield is Placements[Chosen].Yield: the yield actually achieved by
	// fixing the chosen placement across every corner.
	Yield float64
}

// PartialError reports a sweep aborted by context cancellation after
// completing only part of its samples. It wraps the cancellation cause, so
// errors.Is(err, solvererr.ErrCanceled) still holds.
type PartialError struct {
	// Completed and Total count finished and requested samples.
	Completed, Total int
	// Err is the underlying cancellation error.
	Err error
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("variation: sweep aborted after %d of %d samples: %v", e.Completed, e.Total, e.Err)
}

// Unwrap exposes the cancellation cause to errors.Is / errors.As.
func (e *PartialError) Unwrap() error { return e.Err }

// SweepEngine is the per-worker unit of a sweep: one warm core engine plus
// the scratch instance (scaled tree and library) and evaluator it rewrites
// per corner. After its first RunCorner on an instance, further corners of
// the same instance allocate nothing on the steady-state path.
//
// A SweepEngine is not safe for concurrent use; Sweep gives each worker its
// own.
type SweepEngine struct {
	eng    *core.Engine
	owned  bool // engine constructed here (vs borrowed from a pool)
	put    func(*core.Engine)
	base   *tree.Tree
	lib    library.Library // original library, never mutated
	scaled *tree.Tree      // scratch: base with corner-scaled edges
	slib   library.Library // scratch: lib with corner-scaled types
	opt    core.Options
	res    core.Result
	ev     delay.Evaluator
}

// NewSweepEngine prepares a sweep engine for one (tree, library) instance.
// get/put may be nil, in which case a fresh core engine is constructed.
func NewSweepEngine(t *tree.Tree, lib library.Library, opt core.Options, get func() *core.Engine, put func(*core.Engine)) *SweepEngine {
	e := &SweepEngine{base: t, lib: lib, opt: opt, put: put}
	if get != nil {
		e.eng = get()
	} else {
		e.eng = core.NewEngine()
		e.owned = true
	}
	e.scaled = t.Clone()
	e.slib = append(library.Library(nil), lib...)
	return e
}

// Release returns a borrowed engine to its pool (or drops an owned one) and
// clears instance references. The SweepEngine is spent afterwards.
func (e *SweepEngine) Release() {
	if e.eng != nil {
		e.eng.Release()
		if e.put != nil && !e.owned {
			e.put(e.eng)
		}
		e.eng = nil
	}
	e.base, e.lib, e.scaled, e.slib = nil, nil, nil, nil
}

// apply rewrites the scratch instance in place to corner c. Uniform scaling
// preserves both library orderings (see the package comment), so the core
// engine's cached orderR/cinRank — keyed on the scratch library's identity,
// which never changes — remain valid across corners.
func (e *SweepEngine) apply(c Corner) {
	bv, sv := e.base.Verts, e.scaled.Verts
	for i := range sv {
		sv[i].EdgeR = bv[i].EdgeR * c.WireR
		sv[i].EdgeC = bv[i].EdgeC * c.WireC
	}
	for i := range e.slib {
		e.slib[i].R = e.lib[i].R * c.LibR
		e.slib[i].K = e.lib[i].K * c.LibK
		e.slib[i].Cin = e.lib[i].Cin * c.LibCin
	}
}

// RunCorner re-optimizes the instance under corner c, returning the optimal
// slack, the critical sink of the optimal placement, and the placement
// itself. The returned placement aliases engine scratch: it is valid until
// the next RunCorner and must be copied to be retained.
func (e *SweepEngine) RunCorner(ctx context.Context, c Corner) (slack float64, critical int, plc delay.Placement, err error) {
	e.apply(c)
	if err := e.eng.Reset(e.scaled, e.slib, e.opt); err != nil {
		return 0, -1, nil, err
	}
	if err := e.eng.RunContext(ctx, &e.res); err != nil {
		return 0, -1, nil, err
	}
	// The evaluator re-derives the timing of the optimal placement to find
	// the critical sink; the reported slack stays the DP's (the two agree
	// to float tolerance, differing only in summation association).
	critical = e.ev.Slack(e.scaled, e.slib, e.res.Placement, e.opt.Driver)
	return e.res.Slack, critical, e.res.Placement, nil
}

// FixedSlack evaluates placement p (not necessarily this corner's optimum)
// under corner c, returning the resulting slack. Used by robust selection
// to score candidate placements across the whole corner set.
func (e *SweepEngine) FixedSlack(c Corner, p delay.Placement) float64 {
	e.apply(c)
	e.ev.Slack(e.scaled, e.slib, p, e.opt.Driver)
	return e.ev.MinSlack
}

// Sweep re-optimizes the net under every corner of cfg on a worker pool of
// SweepEngines, aggregates the slack distribution and yield, deduplicates
// the observed optimal placements, and selects the final placement —
// corner 0's optimum, or the fixed-placement yield maximizer when
// cfg.Robust is set.
//
// The result is deterministic for a given corner list: samples are written
// by corner index and placements are grouped in corner order, so the worker
// count never changes the outcome. On cancellation mid-sweep the error is a
// *PartialError wrapping solvererr.ErrCanceled.
func Sweep(ctx context.Context, t *tree.Tree, lib library.Library, cfg Config) (*Result, error) {
	if len(cfg.Corners) == 0 {
		return nil, solvererr.Validation("variation", "corners", "sweep needs at least one corner")
	}
	for _, c := range cfg.Corners {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}

	n := len(cfg.Corners)
	opt := core.Options{Driver: cfg.Driver, CheckInvariants: cfg.CheckInvariants}
	samples := make([]Sample, n)
	plcs := make([]delay.Placement, n) // per-sample placement (worker-group storage, aliased)
	errs := make([]error, n)

	workers := cfg.workers()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			eng := NewSweepEngine(t, lib, opt, cfg.GetEngine, cfg.PutEngine)
			defer eng.Release()
			var groups []delay.Placement // worker-local distinct placements
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				slack, crit, plc, err := eng.RunCorner(ctx, cfg.Corners[i])
				if err != nil {
					errs[i] = err
					if errors.Is(err, solvererr.ErrCanceled) {
						return
					}
					continue
				}
				// Dedup against this worker's groups so retained placements
				// are copied once per distinct optimum, not once per sample.
				stored := findPlacement(groups, plc)
				if stored == nil {
					stored = append(delay.Placement(nil), plc...)
					groups = append(groups, stored)
				}
				samples[i] = Sample{Corner: cfg.Corners[i], Slack: slack, CriticalSink: crit}
				plcs[i] = stored
				if cfg.Completed != nil {
					cfg.Completed.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	done := 0
	for i := range plcs {
		if plcs[i] != nil {
			done++
		}
	}
	// Cancellation only voids the sweep if samples are actually missing: a
	// context that fires after the last corner completed must not discard a
	// fully computed result.
	if err := ctx.Err(); err != nil && done < n {
		return nil, &PartialError{Completed: done, Total: n, Err: solvererr.Canceled(ctx)}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Target: cfg.Target, Robust: cfg.Robust, Samples: samples}

	// Global placement groups, in sample order — deterministic regardless
	// of which worker discovered a placement first.
	for i := range samples {
		gi := -1
		for g := range res.Placements {
			if placementsEqual(res.Placements[g].Placement, plcs[i]) {
				gi = g
				break
			}
		}
		if gi < 0 {
			gi = len(res.Placements)
			res.Placements = append(res.Placements, PlacementGroup{
				Placement: plcs[i],
				Cost:      plcs[i].Cost(lib),
			})
		}
		res.Placements[gi].Count++
		samples[i].Placement = gi
	}

	res.aggregate()

	// Score every distinct placement as a fixed choice across all corners.
	// FixedSlack only touches the scratch instance and the evaluator, so
	// the scorer deliberately skips the engine pool hooks — no point
	// checking a warm engine out just to hold it idle.
	scorer := NewSweepEngine(t, lib, opt, nil, nil)
	defer scorer.Release()
	for g := range res.Placements {
		grp := &res.Placements[g]
		pass, sum := 0, 0.0
		grp.WorstSlack = math.Inf(1)
		for _, c := range cfg.Corners {
			s := scorer.FixedSlack(c, grp.Placement)
			sum += s
			if s < grp.WorstSlack {
				grp.WorstSlack = s
			}
			if s >= cfg.Target {
				pass++
			}
		}
		grp.Yield = float64(pass) / float64(n)
		grp.MeanSlack = sum / float64(n)
	}

	res.Chosen = 0
	if cfg.Robust {
		res.Chosen = chooseRobust(res.Placements)
	}
	res.Placement = res.Placements[res.Chosen].Placement
	res.Yield = res.Placements[res.Chosen].Yield
	return res, nil
}

// aggregate fills the distribution, optimal yield and worst-sample fields
// from the per-corner samples.
func (r *Result) aggregate() {
	n := len(r.Samples)
	slacks := make([]float64, n)
	pass := 0
	r.WorstSample = 0
	sum := 0.0
	for i, s := range r.Samples {
		slacks[i] = s.Slack
		sum += s.Slack
		if s.Slack >= r.Target {
			pass++
		}
		if s.Slack < r.Samples[r.WorstSample].Slack {
			r.WorstSample = i
		}
	}
	r.OptimalYield = float64(pass) / float64(n)
	mean := sum / float64(n)
	ss := 0.0
	for _, s := range slacks {
		d := s - mean
		ss += d * d
	}
	sort.Float64s(slacks)
	r.Dist = Distribution{
		Mean: mean,
		Std:  math.Sqrt(ss / float64(n)),
		Min:  slacks[0],
		Max:  slacks[n-1],
		P5:   quantile(slacks, 0.05),
		P50:  quantile(slacks, 0.50),
		P95:  quantile(slacks, 0.95),
	}
}

// chooseRobust picks the group maximizing yield, breaking ties by worst
// slack, then mean slack, then lower cost, then first appearance.
func chooseRobust(groups []PlacementGroup) int {
	best := 0
	for g := 1; g < len(groups); g++ {
		a, b := &groups[g], &groups[best]
		switch {
		case a.Yield != b.Yield:
			if a.Yield > b.Yield {
				best = g
			}
		case a.WorstSlack != b.WorstSlack:
			if a.WorstSlack > b.WorstSlack {
				best = g
			}
		case a.MeanSlack != b.MeanSlack:
			if a.MeanSlack > b.MeanSlack {
				best = g
			}
		case a.Cost < b.Cost:
			best = g
		}
	}
	return best
}

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// findPlacement returns the stored placement equal to p, or nil.
func findPlacement(groups []delay.Placement, p delay.Placement) delay.Placement {
	for _, g := range groups {
		if placementsEqual(g, p) {
			return g
		}
	}
	return nil
}

func placementsEqual(a, b delay.Placement) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
