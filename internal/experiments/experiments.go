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
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"bufferkit/internal/core"
	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/libreduce"
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
	// Reps is the number of timed samples per cell, reported as a median;
	// default 5.
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
		c.Reps = 5
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// emit writes a titled table as CSV or, aligned by text/tabwriter, as a
// header, a dash rule and the rows. float64 cells print with %.4g.
func (c Config) emit(title string, header []string, rows [][]any) error {
	fmt.Fprintln(c.Out, title)
	records := [][]string{header}
	for _, row := range rows {
		rec := make([]string, len(row))
		for i, v := range row {
			rec[i] = fmt.Sprint(v)
			if f, ok := v.(float64); ok {
				rec[i] = fmt.Sprintf("%.4g", f)
			}
		}
		records = append(records, rec)
	}
	if c.CSV {
		return csv.NewWriter(c.Out).WriteAll(records)
	}
	rule := make([]string, len(header))
	for i, h := range header {
		rule[i] = strings.Repeat("-", len(h))
	}
	w := tabwriter.NewWriter(c.Out, 0, 0, 2, ' ', 0)
	for _, rec := range slices.Insert(records, 1, rule) {
		fmt.Fprintln(w, strings.Join(rec, "\t"))
	}
	return w.Flush()
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

// Cell is one timed run of the paper evaluation: a cold core.Insert of one
// net and library, under the Lillis baseline if Lillis is set. Table is
// the repro experiment it belongs to and Name its sub-benchmark name under
// the root BenchmarkTable1/Fig3/Fig4, e.g. Table "table1", Name
// "m337_n5729/b8/lillis".
type Cell struct {
	Table, Name string
	// Net returns the cell's net, built on first use.
	Net    func() (*tree.Tree, error)
	Lib    library.Library
	Lillis bool
}

// Run makes the cell's cold run on t, its built net, and returns the
// optimal slack.
func (c Cell) Run(t *tree.Tree) (float64, error) {
	r, err := core.Insert(t, c.Lib, core.Options{Driver: Driver, Lillis: c.Lillis})
	if err != nil {
		return 0, err
	}
	return r.Slack, nil
}

// Cells returns every timed run of the paper evaluation at cfg's scale and
// seed, table by table: Table 1 (every industrial case at every library
// size), Fig 3 (b = 8…64 on the 1944-sink net) and Fig 4 (growing n at
// b = 32), each instance as its Lillis cell then its new cell, and the
// library reduction (the full 64-type library under the new algorithm,
// then clustered libraries under Lillis). repro's tables and the root
// paper benchmarks both time these cells. A table's cells on one net share
// it, built on first use.
func Cells(cfg Config) ([]Cell, error) {
	cfg = cfg.fill()
	net := func(m, n int) func() (*tree.Tree, error) {
		return sync.OnceValues(func() (*tree.Tree, error) { return cfg.Net(m, n) })
	}
	var cells []Cell
	both := func(table, name string, t func() (*tree.Tree, error), lib library.Library) {
		cells = append(cells,
			Cell{table, name + "/lillis", t, lib, true},
			Cell{table, name + "/new", t, lib, false})
	}
	for _, cs := range Table1Cases {
		t := net(cs.M, cs.N)
		for _, b := range LibSizes {
			both("table1", fmt.Sprintf("m%d_n%d/b%d", cs.M, cs.N, b), t, library.Generate(b))
		}
	}
	t := net(1944, 33133)
	for _, b := range []int{8, 16, 24, 32, 40, 48, 56, 64} {
		both("fig3", fmt.Sprintf("b%d", b), t, library.Generate(b))
	}
	for _, n := range []int{1943, 4142, 8283, 16566, 33133, 66266} {
		both("fig4", fmt.Sprintf("n%d", n), net(1944, n), library.Generate(32))
	}
	t, full := net(337, 5729), library.Generate(64)
	cells = append(cells, Cell{"libreduce", "full/new", t, full, false})
	for _, k := range []int{4, 8, 16} {
		red, _, err := libreduce.Reduce(full, k)
		if err != nil {
			return nil, fmt.Errorf("libreduce k=%d: %w", k, err)
		}
		cells = append(cells, Cell{"libreduce", fmt.Sprintf("reduced-%d/lillis", k), t, red, true})
	}
	return cells, nil
}

// sampled is one cell's outcome under sample.
type sampled struct {
	ms    []float64 // wall-clock milliseconds, one per rep
	slack float64
}

// timeTable times table's cells of Cells(cfg) with sample. Every net is
// built once it returns.
func timeTable(cfg Config, table string) ([]Cell, []sampled, error) {
	all, err := Cells(cfg)
	if err != nil {
		return nil, nil, err
	}
	cells := slices.DeleteFunc(all, func(c Cell) bool { return c.Table != table })
	s, err := sample(cells, cfg.Reps)
	return cells, s, err
}

// sample is the interleaved sampler that times the paper evaluation: rep
// r = 1…reps runs every cell once, in order, so each instance's new run
// follows its Lillis run immediately and slow machine drift lands on both
// alike. Building a net is not timed.
func sample(cells []Cell, reps int) ([]sampled, error) {
	out := make([]sampled, len(cells))
	for range reps {
		for i, c := range cells {
			t, err := c.Net()
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", c.Table, c.Name, err)
			}
			start := time.Now()
			slack, err := c.Run(t)
			ms := float64(time.Since(start)) / float64(time.Millisecond)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", c.Table, c.Name, err)
			}
			out[i].ms = append(out[i].ms, ms)
			out[i].slack = slack
		}
	}
	return out, nil
}

// pair is one instance timed as a Lillis cell then a new cell.
type pair struct {
	cell            Cell // the Lillis cell
	lillisMs, newMs float64
	speedup, slack  float64
}

// pairs reads cells — Lillis, new, Lillis, new, … — and their samples as
// one pair per instance: per-cell median times, the median of the per-rep
// paired ratios as the speedup, and the new algorithm's slack. The two
// algorithms must agree on every optimal slack.
func pairs(cells []Cell, s []sampled) ([]pair, error) {
	var out []pair
	for i := 0; i+1 < len(cells); i += 2 {
		l, n := s[i], s[i+1]
		if !almostEqual(l.slack, n.slack) {
			return nil, fmt.Errorf("%s %s: algorithms disagree on optimal slack (lillis %g, new %g)",
				cells[i].Table, strings.TrimSuffix(cells[i].Name, "/lillis"), l.slack, n.slack)
		}
		out = append(out, pair{cells[i], median(l.ms), median(n.ms), pairedRatio(l.ms, n.ms), n.slack})
	}
	return out, nil
}

// timePairs times table's cells and pairs them.
func timePairs(cfg Config, table string) ([]pair, error) {
	cells, s, err := timeTable(cfg, table)
	if err != nil {
		return nil, err
	}
	return pairs(cells, s)
}

// median returns the middle value of xs, or the mean of the middle two; xs
// is left unsorted.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// pairedRatio returns the median over reps of num[r]/den[r]. Each ratio
// compares two runs made back to back, so drift slower than one rep
// cancels.
func pairedRatio(num, den []float64) float64 {
	r := make([]float64, len(num))
	for i := range num {
		r[i] = num[i] / den[i]
	}
	return median(r)
}

// normalize divides every element by the first, reproducing the paper's
// "normalized running time" axes. An empty or zero-leading series is
// returned unchanged.
func normalize(xs []float64) []float64 {
	out := slices.Clone(xs)
	if len(xs) == 0 || xs[0] == 0 {
		return out
	}
	for i := range out {
		out[i] /= xs[0]
	}
	return out
}

// Table1 reproduces the paper's Table 1: runtime of the Lillis O(b²n²)
// baseline versus the new O(bn²) algorithm over three industrial nets and
// four library sizes, reporting the speedup (the paper measures up to ~11×
// at b = 64 on its largest cases).
func Table1(cfg Config) error {
	cfg = cfg.fill()
	ps, err := timePairs(cfg, "table1")
	if err != nil {
		return err
	}
	var rows [][]any
	for _, p := range ps {
		t, _ := p.cell.Net() // built without error by the sampler
		rows = append(rows, []any{t.NumSinks(), t.NumBufferPositions(), len(p.cell.Lib),
			p.lillisMs, p.newMs, p.speedup, p.slack})
	}
	return cfg.emit("# Table 1 — industrial cases: Lillis (O(b²n²)) vs new algorithm (O(bn²))",
		[]string{"m", "n", "b", "lillis_ms", "new_ms", "speedup", "slack_ps"}, rows)
}

// curve is Fig 3 and Fig 4's table: each instance's median times and both
// series normalized to the first instance. x labels the instance.
func curve(ps []pair, x func(pair) int) [][]any {
	var tl, tn []float64
	for _, p := range ps {
		tl, tn = append(tl, p.lillisMs), append(tn, p.newMs)
	}
	nl, nn := normalize(tl), normalize(tn)
	var rows [][]any
	for i, p := range ps {
		rows = append(rows, []any{x(p), tl[i], tn[i], nl[i], nn[i]})
	}
	return rows
}

// Fig3 reproduces Figure 3: normalized running time versus buffer library
// size b on the 1944-sink / 33133-position net. Both curves look linear in
// b; the paper's point is the slope gap (Lillis ≈ 11× from b=8 to b=64,
// the new algorithm ≈ 2×).
func Fig3(cfg Config) error {
	cfg = cfg.fill()
	ps, err := timePairs(cfg, "fig3")
	if err != nil {
		return err
	}
	t, _ := ps[0].cell.Net()
	return cfg.emit(fmt.Sprintf("# Fig 3 — normalized runtime vs library size b (m=%d, n=%d; normalized to b=%d)",
		t.NumSinks(), t.NumBufferPositions(), len(ps[0].cell.Lib)),
		[]string{"b", "lillis_ms", "new_ms", "lillis_norm", "new_norm"},
		curve(ps, func(p pair) int { return len(p.cell.Lib) }))
}

// Fig4 reproduces Figure 4: normalized running time versus the number of
// buffer positions n on the 1944-sink net with b = 32. Both curves grow
// superlinearly; the new algorithm grows much more slowly because adding a
// buffer dominates as n increases.
func Fig4(cfg Config) error {
	cfg = cfg.fill()
	ps, err := timePairs(cfg, "fig4")
	if err != nil {
		return err
	}
	positions := func(p pair) int {
		t, _ := p.cell.Net()
		return t.NumBufferPositions()
	}
	t, _ := ps[0].cell.Net()
	return cfg.emit(fmt.Sprintf("# Fig 4 — normalized runtime vs buffer positions n (m=%d, b=32; normalized to n=%d)",
		t.NumSinks(), positions(ps[0])),
		[]string{"n", "lillis_ms", "new_ms", "lillis_norm", "new_norm"},
		curve(ps, positions))
}

// LibReduce quantifies the paper's motivation (§1): clustering the library
// down to k types (Alpert-style) makes the quadratic baseline faster but
// costs slack, whereas the new algorithm affords the full library.
func LibReduce(cfg Config) error {
	cfg = cfg.fill()
	cells, s, err := timeTable(cfg, "libreduce")
	if err != nil {
		return err
	}
	opt := s[0].slack // the full library under the new algorithm
	var rows [][]any
	for i, c := range cells {
		label, algo, _ := strings.Cut(c.Name, "/")
		rows = append(rows, []any{label, len(c.Lib), algo, median(s[i].ms), s[i].slack, opt - s[i].slack})
	}
	return cfg.emit("# Library reduction — full library + new algorithm vs clustered library + Lillis",
		[]string{"library", "b", "algo", "time_ms", "slack_ps", "loss_ps"}, rows)
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
	var rows [][]any
	for _, b := range LibSizes {
		res, err := core.Insert(t, library.Generate(b), core.Options{Driver: Driver})
		if err != nil {
			return fmt.Errorf("listlen b=%d: %w", b, err)
		}
		s := res.Stats
		pos := float64(s.Positions)
		rows = append(rows, []any{b, s.MaxListLen, float64(s.SumListLen) / pos, float64(s.SumHullLen) / pos,
			b*t.NumBufferPositions() + 1, float64(s.BetasKept) / float64(s.BetasGenerated)})
	}
	return cfg.emit(fmt.Sprintf("# List lengths — why practice beats the bn+1 bound (m=%d, n=%d)",
		t.NumSinks(), t.NumBufferPositions()),
		[]string{"b", "max_list", "avg_list", "avg_hull", "bn+1", "betas_kept_frac"}, rows)
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

// almostEqual mirrors testutil's slack tolerance without importing the
// testing machinery into experiment binaries.
func almostEqual(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-6*scale
}
