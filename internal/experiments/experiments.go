// Package experiments regenerates the paper's evaluation — Table 1, Figure
// 3 and Figure 4 — plus two supporting studies (library-reduction quality
// loss and candidate-list-length analysis). The same definitions back both
// cmd/repro and the root benchmark suite, so EXPERIMENTS.md numbers are
// reproducible from either entry point.
//
// Scope notes (see DESIGN.md §5): the paper's industrial nets are not
// public, so workloads are synthetic nets with the paper's sink counts,
// position counts and TSMC-180nm electrical constants. Only the 1944-sink
// net's position count (33133) is legible in the source scan; the other
// cases use the same ≈17 positions-per-sink ratio. Absolute times are not
// comparable to the paper's 400 MHz SPARC; shapes and winners are.
package experiments

import (
	"fmt"
	"io"
	"math"

	"bufferkit/internal/core"
	"bufferkit/internal/delay"
	"bufferkit/internal/harness"
	"bufferkit/internal/library"
	"bufferkit/internal/libreduce"
	"bufferkit/internal/lillis"
	"bufferkit/internal/netgen"
	"bufferkit/internal/tree"
)

// Driver is the source driver used by every experiment: a mid-strength
// driver consistent with the paper's technology constants.
var Driver = delay.Driver{R: 0.2, K: 15}

// Config controls experiment sizing and output.
type Config struct {
	// Scale divides the paper's m and n (minimum 1 = full paper scale).
	Scale int
	// Reps is the number of timing repetitions (fastest wins); default 2.
	Reps int
	// Seed varies the synthetic topologies.
	Seed int64
	// Out receives the rendered tables.
	Out io.Writer
	// CSV switches output from aligned text to CSV.
	CSV bool
}

func (c Config) fill() Config {
	if c.Scale < 1 {
		c.Scale = 1
	}
	if c.Reps < 1 {
		c.Reps = 2
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

func (c Config) emit(t *harness.Table) error {
	if c.CSV {
		return t.CSV(c.Out)
	}
	return t.Render(c.Out)
}

// Case is one industrial test case of Table 1.
type Case struct {
	M, N int
}

// Table1Cases are the paper's three industrial nets. Only the 1944-sink
// case's position count is legible in the scan; the others use the same
// positions-per-sink ratio.
var Table1Cases = []Case{{337, 5729}, {1944, 33133}, {2676, 45492}}

// LibSizes are the paper's four library sizes.
var LibSizes = []int{8, 16, 32, 64}

// DefaultSeed is repro's default -seed; the root benchmarks use it too, so
// both entry points build the same nets.
const DefaultSeed = 1

// Net builds the synthetic industrial net for the paper case (m sinks, n
// buffer positions) at c's scale and seed. Every experiment, the benchmark
// suite and the root paper-figure benchmarks build their nets here.
func (c Config) Net(m, n int) (*tree.Tree, error) {
	m, n = max(2, m/c.Scale), max(2, n/c.Scale)
	return netgen.Industrial(m, n, c.Seed+1)
}

// timeBoth measures both algorithms on one instance and verifies they agree
// on the optimal slack.
func timeBoth(cfg Config, t *tree.Tree, lib library.Library) (tLillis, tNew float64, slack float64, agree bool, err error) {
	var rl *lillis.Result
	var rc *core.Result
	tLillis = harness.TimeBest(cfg.Reps, func() {
		rl, err = lillis.Insert(t, lib, Driver)
	})
	if err != nil {
		return 0, 0, 0, false, err
	}
	tNew = harness.TimeBest(cfg.Reps, func() {
		rc, err = core.Insert(t, lib, core.Options{Driver: Driver})
	})
	if err != nil {
		return 0, 0, 0, false, err
	}
	return tLillis, tNew, rc.Slack, almostEqual(rl.Slack, rc.Slack), nil
}

// Table1 reproduces the paper's Table 1: runtime of the Lillis O(b²n²)
// baseline versus the new O(bn²) algorithm over three industrial nets and
// four library sizes, reporting the speedup (the paper measures up to ~11×
// at b = 64 on its largest cases).
func Table1(cfg Config) error {
	cfg = cfg.fill()
	tab := harness.NewTable("m", "n", "b", "lillis_ms", "new_ms", "speedup", "slack_ps", "optimal_match")
	for _, cs := range Table1Cases {
		t, err := cfg.Net(cs.M, cs.N)
		if err != nil {
			return fmt.Errorf("table1: %w", err)
		}
		for _, b := range LibSizes {
			tl, tn, slack, agree, err := timeBoth(cfg, t, library.Generate(b))
			if err != nil {
				return fmt.Errorf("table1 m=%d b=%d: %w", cs.M, b, err)
			}
			tab.Addf(t.NumSinks(), t.NumBufferPositions(), b,
				tl*1e3, tn*1e3, tl/tn, slack, mark(agree))
		}
	}
	fmt.Fprintln(cfg.Out, "# Table 1 — industrial cases: Lillis (O(b²n²)) vs new algorithm (O(bn²))")
	return cfg.emit(tab)
}

// Fig3 reproduces Figure 3: normalized running time versus buffer library
// size b on the 1944-sink / 33133-position net. Both curves look linear in
// b; the paper's point is the slope gap (Lillis ≈ 11× from b=8 to b=64,
// the new algorithm ≈ 2×).
func Fig3(cfg Config) error {
	cfg = cfg.fill()
	t, err := cfg.Net(1944, 33133)
	if err != nil {
		return fmt.Errorf("fig3: %w", err)
	}
	bs := []int{8, 16, 24, 32, 40, 48, 56, 64}
	var tl, tn []float64
	for _, b := range bs {
		l, n, _, agree, err := timeBoth(cfg, t, library.Generate(b))
		if err != nil {
			return fmt.Errorf("fig3 b=%d: %w", b, err)
		}
		if !agree {
			return fmt.Errorf("fig3 b=%d: algorithms disagree on optimal slack", b)
		}
		tl, tn = append(tl, l), append(tn, n)
	}
	nl, nn := harness.Normalize(tl), harness.Normalize(tn)
	tab := harness.NewTable("b", "lillis_ms", "new_ms", "lillis_norm", "new_norm")
	for i, b := range bs {
		tab.Addf(b, tl[i]*1e3, tn[i]*1e3, nl[i], nn[i])
	}
	fmt.Fprintf(cfg.Out, "# Fig 3 — normalized runtime vs library size b (m=%d, n=%d; normalized to b=%d)\n",
		t.NumSinks(), t.NumBufferPositions(), bs[0])
	return cfg.emit(tab)
}

// Fig4 reproduces Figure 4: normalized running time versus the number of
// buffer positions n on the 1944-sink net with b = 32. Both curves grow
// superlinearly; the new algorithm grows much more slowly because adding a
// buffer dominates as n increases.
func Fig4(cfg Config) error {
	cfg = cfg.fill()
	lib := library.Generate(32)
	ns := []int{1943, 4142, 8283, 16566, 33133, 66266}
	var tl, tn []float64
	var rows []struct {
		m, n int
	}
	for _, n := range ns {
		t, err := cfg.Net(1944, n)
		if err != nil {
			return fmt.Errorf("fig4 n=%d: %w", n, err)
		}
		l, nw, _, agree, err := timeBoth(cfg, t, lib)
		if err != nil {
			return fmt.Errorf("fig4 n=%d: %w", n, err)
		}
		if !agree {
			return fmt.Errorf("fig4 n=%d: algorithms disagree on optimal slack", n)
		}
		tl, tn = append(tl, l), append(tn, nw)
		rows = append(rows, struct{ m, n int }{t.NumSinks(), t.NumBufferPositions()})
	}
	nl, nn := harness.Normalize(tl), harness.Normalize(tn)
	tab := harness.NewTable("n", "lillis_ms", "new_ms", "lillis_norm", "new_norm")
	for i := range ns {
		tab.Addf(rows[i].n, tl[i]*1e3, tn[i]*1e3, nl[i], nn[i])
	}
	fmt.Fprintf(cfg.Out, "# Fig 4 — normalized runtime vs buffer positions n (m=%d, b=32; normalized to n=%d)\n",
		rows[0].m, rows[0].n)
	return cfg.emit(tab)
}

// LibReduce quantifies the paper's motivation (§1): clustering the library
// down to k types (Alpert-style) makes the quadratic baseline faster but
// costs slack, whereas the new algorithm affords the full library.
func LibReduce(cfg Config) error {
	cfg = cfg.fill()
	t, err := cfg.Net(337, 5729)
	if err != nil {
		return fmt.Errorf("libreduce: %w", err)
	}
	full := library.Generate(64)
	opt, err := core.Insert(t, full, core.Options{Driver: Driver})
	if err != nil {
		return fmt.Errorf("libreduce: %w", err)
	}
	tab := harness.NewTable("library", "b", "algo", "time_ms", "slack_ps", "loss_ps")
	tNew := harness.TimeBest(cfg.Reps, func() { core.Insert(t, full, core.Options{Driver: Driver}) })
	tab.Addf("full", 64, "new", tNew*1e3, opt.Slack, 0.0)
	for _, k := range []int{4, 8, 16} {
		red, _, err := libreduce.Reduce(full, k)
		if err != nil {
			return fmt.Errorf("libreduce k=%d: %w", k, err)
		}
		var rl *lillis.Result
		tl := harness.TimeBest(cfg.Reps, func() { rl, err = lillis.Insert(t, red, Driver) })
		if err != nil {
			return fmt.Errorf("libreduce k=%d: %w", k, err)
		}
		tab.Addf(fmt.Sprintf("reduced-%d", k), k, "lillis", tl*1e3, rl.Slack, opt.Slack-rl.Slack)
	}
	fmt.Fprintln(cfg.Out, "# Library reduction — full library + new algorithm vs clustered library + Lillis")
	return cfg.emit(tab)
}

// ListLen explains why the Lillis baseline "behaves more like a linear
// function of b" (paper §4): nonredundant candidate lists stay far shorter
// than the bn+1 worst case, and the hull is shorter still.
func ListLen(cfg Config) error {
	cfg = cfg.fill()
	t, err := cfg.Net(1944, 8283)
	if err != nil {
		return fmt.Errorf("listlen: %w", err)
	}
	tab := harness.NewTable("b", "max_list", "avg_list", "avg_hull", "bn+1", "betas_kept_frac")
	for _, b := range LibSizes {
		res, err := core.Insert(t, library.Generate(b), core.Options{Driver: Driver})
		if err != nil {
			return fmt.Errorf("listlen b=%d: %w", b, err)
		}
		s := res.Stats
		pos := float64(s.Positions)
		tab.Addf(b, s.MaxListLen, float64(s.SumListLen)/pos, float64(s.SumHullLen)/pos,
			b*t.NumBufferPositions()+1, float64(s.BetasKept)/float64(s.BetasGenerated))
	}
	fmt.Fprintf(cfg.Out, "# List lengths — why practice beats the bn+1 bound (m=%d, n=%d)\n",
		t.NumSinks(), t.NumBufferPositions())
	return cfg.emit(tab)
}

// All runs every experiment in order.
func All(cfg Config) error {
	cfg = cfg.fill()
	for _, f := range []func(Config) error{Table1, Fig3, Fig4, LibReduce, ListLen} {
		if err := f(cfg); err != nil {
			return err
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}

func mark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// almostEqual mirrors testutil's slack tolerance without importing the
// testing machinery into experiment binaries.
func almostEqual(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-6*scale
}
