// Command bufopt performs optimal buffer insertion on a net file, or on
// every net file in a directory.
//
// Usage:
//
//	bufopt -net design.net [-lib lib.buf | -gen-lib 16] [flags]
//	bufopt -batch designs/ -gen-lib 16 -j 8 [-algo new]
//
// The net and library formats are documented in the repository README and
// in the internal netlist package; see testdata/ for samples. The tool
// prints the optimal slack, the buffer count and runtime, and optionally
// the placement. In batch mode every *.net file in the directory is
// optimized concurrently by a bufferkit.Solver on -j workers (default
// GOMAXPROCS), with one line streamed per net in sorted-path order.
//
// -algo selects any algorithm registered with the bufferkit facade
// ("new", "lillis", "vanginneken"/"vg", "costslack"). Ctrl-C cancels a run
// gracefully: in-flight nets stop at the next per-vertex checkpoint and
// completed results are still reported.
//
// -yield switches single-net mode to Monte Carlo yield analysis: the net
// is re-optimized under -samples seeded corners perturbing library R/K/Cin
// and wire r/c by -sigma (plus the deterministic process corners with
// -corners), reporting the slack distribution, the yield at -yield-target,
// and — with -robust — the placement maximizing yield across corners
// instead of the nominal optimum (DESIGN.md §12).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"bufferkit"
)

func main() {
	var (
		netPath   = flag.String("net", "", "net file (single-net mode)")
		batchDir  = flag.String("batch", "", "directory of *.net files (batch mode)")
		jobs      = flag.Int("j", 0, "batch worker count (0 = GOMAXPROCS)")
		libPath   = flag.String("lib", "", "buffer library file")
		genLib    = flag.Int("gen-lib", 0, "generate a paper-range library of this size instead of -lib")
		algo      = flag.String("algo", bufferkit.AlgoNew, "algorithm: "+strings.Join(bufferkit.Algorithms(), ", ")+" (vg = vanginneken)")
		placement = flag.Bool("placement", false, "print the buffer placement")
		verify    = flag.Bool("verify", true, "re-check the result against the exact Elmore oracle")
		reduce    = flag.Int("reduce", 0, "library reduction: -1 dominance-only (bit-exact), k>0 cluster to k types, 0 off")

		chipPath = flag.String("chip", "", "chip instance JSON (chip mode: multi-net price-and-resolve)")
		rounds   = flag.Int("rounds", 0, "-chip: pricing-round budget (0 = default)")
		chipStep = flag.Float64("chip-step", 0, "-chip: initial subgradient step, ps per unit overflow (0 = default)")
		chipDec  = flag.Float64("chip-decay", 0, "-chip: per-round step decay in (0,1] (0 = default)")
		chipCap  = flag.Int("chip-capacity", 0, "-chip: override per-site capacity (0 = instance's)")

		yield       = flag.Bool("yield", false, "Monte Carlo yield analysis instead of a single nominal solve")
		samples     = flag.Int("samples", 64, "-yield: number of Monte Carlo corners")
		sigma       = flag.Float64("sigma", 0.05, "-yield: relative sigma of the corner sampler")
		seed        = flag.Int64("seed", 1, "-yield: corner sampler seed")
		yieldTarget = flag.Float64("yield-target", 0, "-yield: slack threshold (ps) a corner must meet to yield")
		robust      = flag.Bool("robust", false, "-yield: select the placement maximizing yield across corners")
		corners     = flag.Bool("corners", false, "-yield: also evaluate the deterministic process corner set")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancel the context; the solvers abort at their next
	// per-vertex checkpoint and bufopt exits after reporting what finished.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *batchDir != "" && *netPath != "":
		err = fmt.Errorf("-net and -batch are mutually exclusive")
	case *chipPath != "" && (*batchDir != "" || *netPath != "" || *yield):
		err = fmt.Errorf("-chip is mutually exclusive with -net, -batch and -yield")
	case *batchDir != "" && *placement:
		err = fmt.Errorf("-placement is not supported with -batch")
	case *batchDir != "" && *yield:
		err = fmt.Errorf("-yield is not supported with -batch")
	case *chipPath != "":
		err = runChip(ctx, os.Stdout, *chipPath, *libPath, *genLib, *algo, *reduce, chipOpts{
			rounds: *rounds, step: *chipStep, decay: *chipDec, capacity: *chipCap,
			workers: *jobs, verify: *verify,
		})
	case *batchDir != "":
		err = runBatch(ctx, os.Stdout, *batchDir, *libPath, *genLib, *algo, *reduce, *jobs, *verify)
	case *yield:
		err = runYield(ctx, os.Stdout, *netPath, *libPath, *genLib, *algo, *reduce, yieldOpts{
			samples: *samples, sigma: *sigma, seed: *seed, target: *yieldTarget,
			robust: *robust, corners: *corners, placement: *placement, workers: *jobs,
		})
	default:
		err = run(ctx, os.Stdout, *netPath, *libPath, *genLib, *algo, *reduce, *placement, *verify)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bufopt:", err)
		os.Exit(1)
	}
}

// loadLibrary resolves the -lib / -gen-lib flag pair.
func loadLibrary(libPath string, genLib int) (bufferkit.Library, error) {
	switch {
	case libPath != "" && genLib != 0:
		return nil, fmt.Errorf("-lib and -gen-lib are mutually exclusive")
	case libPath != "":
		lf, err := os.Open(libPath)
		if err != nil {
			return nil, err
		}
		defer lf.Close()
		return bufferkit.ParseLibrary(lf)
	case genLib > 0:
		return bufferkit.GenerateLibrary(genLib), nil
	}
	return nil, fmt.Errorf("provide -lib <file> or -gen-lib <size>")
}

// parseAlgo resolves the -algo flag against the algorithm registry,
// accepting "vg" as the historical alias for "vanginneken".
func parseAlgo(algo string) (string, error) {
	if algo == "vg" {
		algo = bufferkit.AlgoVanGinneken
	}
	for _, name := range bufferkit.Algorithms() {
		if name == algo {
			return algo, nil
		}
	}
	return "", fmt.Errorf("unknown -algo %q (have %s)", algo, strings.Join(bufferkit.Algorithms(), ", "))
}

// newSolver assembles the Solver all bufopt modes share.
func newSolver(lib bufferkit.Library, algo string, reduce int, extra ...bufferkit.Option) (*bufferkit.Solver, error) {
	name, err := parseAlgo(algo)
	if err != nil {
		return nil, err
	}
	opts := []bufferkit.Option{
		bufferkit.WithLibrary(lib),
		bufferkit.WithAlgorithm(name),
	}
	if reduce != 0 {
		opts = append(opts, bufferkit.WithLibraryReduction(reduce))
	}
	return bufferkit.NewSolver(append(opts, extra...)...)
}

func run(ctx context.Context, w io.Writer, netPath, libPath string, genLib int, algo string, reduce int, placement, verify bool) error {
	if netPath == "" {
		return fmt.Errorf("-net is required")
	}
	nf, err := os.Open(netPath)
	if err != nil {
		return err
	}
	defer nf.Close()
	net, err := bufferkit.ParseNet(nf)
	if err != nil {
		return err
	}

	lib, err := loadLibrary(libPath, genLib)
	if err != nil {
		return err
	}
	solver, err := newSolver(lib, algo, reduce, bufferkit.WithDriver(net.Driver))
	if err != nil {
		return err
	}
	defer solver.Close()

	t := net.Tree
	fmt.Fprintf(w, "net: %s  (%d vertices, %d sinks, %d buffer positions, %d buffer types, algo %s)\n",
		orDefault(net.Name, netPath), t.Len(), t.NumSinks(), t.NumBufferPositions(), len(lib), solver.Algorithm())

	start := time.Now()
	res, err := solver.Run(ctx, t)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	switch solver.Algorithm() {
	case bufferkit.AlgoNew:
		fmt.Fprintf(w, "stats: max list %d, avg hull %.1f, betas kept %d/%d\n",
			res.Stats.MaxListLen,
			avg(res.Stats.SumHullLen, res.Stats.Positions),
			res.Stats.BetasKept, res.Stats.BetasGenerated)
	case bufferkit.AlgoCostSlack:
		fmt.Fprintln(w, "cost–slack frontier:")
		for _, p := range res.Frontier {
			fmt.Fprintf(w, "  cost %4d  slack %12.4f ps  buffers %4d\n", p.Cost, p.Slack, p.Placement.Count())
		}
	}

	unbuf, err := bufferkit.Evaluate(t, lib, bufferkit.NewPlacement(t.Len()), net.Driver)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "slack: %.4f ps (unbuffered %.4f ps, improvement %.4f ps)\n", res.Slack, unbuf.Slack, res.Slack-unbuf.Slack)
	fmt.Fprintf(w, "buffers: %d   cost: %d   runtime: %s\n", res.Placement.Count(), res.Placement.Cost(lib), elapsed)

	if verify {
		chk, err := verifyPlacement(t, lib, res.Placement, res.Slack, net.Driver)
		if err != nil {
			return err
		}
		path := chk.CriticalPath(t)
		fmt.Fprintf(w, "verified: placement reproduces the reported slack under the Elmore oracle\n")
		fmt.Fprintf(w, "critical path: %d vertices to sink %d (arrival %.2f ps)\n",
			len(path), chk.CriticalSink, chk.Arrival[chk.CriticalSink])
	}

	if placement {
		for v, b := range res.Placement {
			if b != bufferkit.NoBuffer {
				name := t.Verts[v].Name
				if name == "" {
					name = fmt.Sprintf("v%d", v)
				}
				fmt.Fprintf(w, "  %s: %s\n", name, lib[b].Name)
			}
		}
	}
	return nil
}

// yieldOpts bundles the -yield mode flags.
type yieldOpts struct {
	samples   int
	sigma     float64
	seed      int64
	target    float64
	robust    bool
	corners   bool
	placement bool
	workers   int
}

// runYield runs Monte Carlo yield analysis on one net, reporting the slack
// distribution across corners, the yield at the target, and the chosen
// placement.
func runYield(ctx context.Context, w io.Writer, netPath, libPath string, genLib int, algo string, reduce int, o yieldOpts) error {
	if netPath == "" {
		return fmt.Errorf("-net is required")
	}
	nf, err := os.Open(netPath)
	if err != nil {
		return err
	}
	defer nf.Close()
	net, err := bufferkit.ParseNet(nf)
	if err != nil {
		return err
	}
	lib, err := loadLibrary(libPath, genLib)
	if err != nil {
		return err
	}
	extra := []bufferkit.Option{
		bufferkit.WithDriver(net.Driver),
		bufferkit.WithSamples(o.samples),
		bufferkit.WithSigma(o.sigma),
		bufferkit.WithVariationSeed(o.seed),
		bufferkit.WithYieldTarget(o.target),
		bufferkit.WithRobustPlacement(o.robust),
		bufferkit.WithWorkers(o.workers),
	}
	if o.corners {
		extra = append(extra, bufferkit.WithCorners(bufferkit.ProcessCorners()[1:]))
	}
	solver, err := newSolver(lib, algo, reduce, extra...)
	if err != nil {
		return err
	}
	defer solver.Close()

	t := net.Tree
	fmt.Fprintf(w, "net: %s  (%d vertices, %d sinks, %d buffer positions, %d buffer types, algo %s)\n",
		orDefault(net.Name, netPath), t.Len(), t.NumSinks(), t.NumBufferPositions(), len(lib), solver.Algorithm())
	fmt.Fprintf(w, "yield sweep: %d corners (sigma %.3f, seed %d), target %.2f ps\n",
		o.cornerCount(), o.sigma, o.seed, o.target)

	start := time.Now()
	res, err := solver.SolveYield(ctx, t)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	d := res.Dist
	fmt.Fprintf(w, "slack: mean %.4f  std %.4f  min %.4f  p5 %.4f  p50 %.4f  p95 %.4f  max %.4f ps\n",
		d.Mean, d.Std, d.Min, d.P5, d.P50, d.P95, d.Max)
	fmt.Fprintf(w, "worst corner: %s (slack %.4f ps, critical sink %d)\n",
		orDefault(res.Samples[res.WorstSample].Corner.Name, "?"),
		res.Samples[res.WorstSample].Slack, res.Samples[res.WorstSample].CriticalSink)
	fmt.Fprintf(w, "optimal yield: %.4f (re-optimized per corner)\n", res.OptimalYield)
	mode := "nominal"
	if res.Robust {
		mode = "robust"
	}
	fmt.Fprintf(w, "placements: %d distinct optima; %s choice #%d  yield %.4f  worst %.4f ps  cost %d\n",
		len(res.Placements), mode, res.Chosen, res.Yield, res.Placements[res.Chosen].WorstSlack,
		res.Placements[res.Chosen].Cost)
	fmt.Fprintf(w, "buffers: %d   runtime: %s\n", res.Placement.Count(), elapsed)

	if o.placement {
		for v, b := range res.Placement {
			if b != bufferkit.NoBuffer {
				name := t.Verts[v].Name
				if name == "" {
					name = fmt.Sprintf("v%d", v)
				}
				fmt.Fprintf(w, "  %s: %s\n", name, lib[b].Name)
			}
		}
	}
	return nil
}

// cornerCount is the number of corners the sweep evaluates (nominal +
// named corners + samples), for the header line.
func (o yieldOpts) cornerCount() int {
	n := 1 + o.samples
	if o.corners {
		n += len(bufferkit.ProcessCorners()) - 1
	}
	return n
}

// runBatch optimizes every *.net file in dir concurrently via
// Solver.StreamOrdered, printing one summary line per net plus totals.
// Lines appear in sorted-path order regardless of which worker finishes
// first, so batch output is deterministic across runs. Cancellation
// (Ctrl-C) stops cleanly: completed nets stay reported and the totals line
// says how far the batch got.
func runBatch(ctx context.Context, w io.Writer, dir, libPath string, genLib int, algo string, reduce, jobs int, verify bool) error {
	lib, err := loadLibrary(libPath, genLib)
	if err != nil {
		return err
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.net"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return fmt.Errorf("no *.net files in %q", dir)
	}

	nets := make([]*bufferkit.Net, len(paths))
	trees := make([]*bufferkit.Tree, len(paths))
	drivers := make([]bufferkit.Driver, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		nets[i], err = bufferkit.ParseNet(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		trees[i] = nets[i].Tree
		drivers[i] = nets[i].Driver
	}

	solver, err := newSolver(lib, algo, reduce,
		bufferkit.WithDrivers(drivers),
		bufferkit.WithWorkers(jobs),
	)
	if err != nil {
		return err
	}

	buffers := 0
	done := 0
	failed := 0
	start := time.Now()
	for res, err := range solver.StreamOrdered(ctx, trees) {
		if res.Index < 0 {
			return err
		}
		name := orDefault(nets[res.Index].Name, paths[res.Index])
		if err != nil {
			fmt.Fprintf(w, "%-24s FAILED: %v\n", name, err)
			failed++
			continue
		}
		if verify {
			if _, err := verifyPlacement(trees[res.Index], lib, res.Placement, res.Slack, drivers[res.Index]); err != nil {
				fmt.Fprintf(w, "%-24s FAILED: %v\n", name, err)
				failed++
				continue
			}
		}
		fmt.Fprintf(w, "%-24s slack %12.4f ps   buffers %5d   candidates %5d\n",
			name, res.Slack, res.Placement.Count(), res.Candidates)
		buffers += res.Placement.Count()
		done++
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "batch: %d/%d nets, %d buffers, %s total (%.2f nets/s)\n",
		done, len(paths), buffers, elapsed, float64(done)/elapsed.Seconds())
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("canceled after %d of %d nets: %w", done+failed, len(paths), err)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d nets failed", failed, len(paths))
	}
	return nil
}

// verifyPlacement re-checks a reported placement and slack against the
// exact Elmore oracle, returning the oracle's timing on success.
func verifyPlacement(t *bufferkit.Tree, lib bufferkit.Library, plc bufferkit.Placement, slack float64, drv bufferkit.Driver) (*bufferkit.TimingResult, error) {
	chk, err := bufferkit.Evaluate(t, lib, plc, drv)
	if err != nil {
		return nil, fmt.Errorf("verification failed: %w", err)
	}
	if d := chk.Slack - slack; d > 1e-6 || d < -1e-6 {
		return nil, fmt.Errorf("verification failed: oracle slack %.6f != reported %.6f", chk.Slack, slack)
	}
	if len(chk.PolarityViolations) > 0 {
		return nil, fmt.Errorf("verification failed: polarity violations at %v", chk.PolarityViolations)
	}
	return chk, nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func avg(sum, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
