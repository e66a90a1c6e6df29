package experiments

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"bufferkit/internal/library"
	"bufferkit/internal/netgen"
	"bufferkit/internal/tree"
)

// smallCfg shrinks the paper sizes ~50× so the whole suite runs in seconds.
func smallCfg(buf *bytes.Buffer) Config {
	return Config{Scale: 48, Reps: 1, Out: buf}
}

func lines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

func TestTable1Shape(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(smallCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	got := lines(buf.String())
	// title + header + rule + 3 cases × 4 library sizes
	if want := 3 + 3*4; len(got) != want {
		t.Fatalf("got %d lines, want %d:\n%s", len(got), want, buf.String())
	}
	for _, b := range []string{" 8 ", " 16 ", " 32 ", " 64 "} {
		if !strings.Contains(buf.String(), b) {
			t.Fatalf("missing library size %q:\n%s", b, buf.String())
		}
	}
}

func TestFig3Shape(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(smallCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	got := lines(buf.String())
	if want := 3 + 8; len(got) != want {
		t.Fatalf("got %d lines, want %d:\n%s", len(got), want, buf.String())
	}
	// The first normalized entries must be 1.
	if !strings.Contains(got[3], "1") {
		t.Fatalf("first row not normalized to 1:\n%s", buf.String())
	}
}

func TestFig4Shape(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig4(smallCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	got := lines(buf.String())
	if want := 3 + 6; len(got) != want {
		t.Fatalf("got %d lines, want %d:\n%s", len(got), want, buf.String())
	}
}

func TestLibReduceShape(t *testing.T) {
	var buf bytes.Buffer
	if err := LibReduce(smallCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "full") || !strings.Contains(out, "reduced-8") {
		t.Fatalf("missing rows:\n%s", out)
	}
	// Quality loss is nonnegative by optimality; the column must not carry
	// a negative sign beyond float noise.
	if strings.Contains(out, "-1") && strings.Contains(out, "loss") {
		for _, l := range lines(out)[3:] {
			f := strings.Fields(l)
			if strings.HasPrefix(f[len(f)-1], "-1") {
				t.Fatalf("negative quality loss:\n%s", out)
			}
		}
	}
}

func TestListLenShape(t *testing.T) {
	var buf bytes.Buffer
	if err := ListLen(smallCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	got := lines(buf.String())
	if want := 3 + 4; len(got) != want {
		t.Fatalf("got %d lines, want %d:\n%s", len(got), want, buf.String())
	}
}

func TestAllRunsEverything(t *testing.T) {
	var buf bytes.Buffer
	cfg := smallCfg(&buf)
	cfg.Scale = 96
	if err := All(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Fig 3", "Fig 4", "Library reduction", "List lengths"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing section %q", want)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	var buf bytes.Buffer
	cfg := smallCfg(&buf)
	cfg.Scale = 96
	cfg.CSV = true
	if err := Table1(cfg); err != nil {
		t.Fatal(err)
	}
	got := lines(buf.String())
	if !strings.Contains(got[1], "m,n,b,") {
		t.Fatalf("no CSV header:\n%s", buf.String())
	}
	if want := 2 + 12; len(got) != want {
		t.Fatalf("got %d lines, want %d", len(got), want)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.fill()
	if c.Scale != 1 || c.Reps != 5 || c.Out == nil {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

// TestSampleInterleaves: rep r runs every cell once, in table order, so the
// cells of one instance run back to back in every rep.
func TestSampleInterleaves(t *testing.T) {
	net := netgen.Random(netgen.Opts{Sinks: 4, Seed: 1})
	var calls []string
	cell := func(name string, lillis bool) Cell {
		return Cell{Table: "t", Name: name, Lib: library.Generate(4), Lillis: lillis,
			Net: func() (*tree.Tree, error) {
				calls = append(calls, name)
				return net, nil
			}}
	}
	cells := []Cell{cell("A", true), cell("B", false)}
	s, err := sample(cells, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"A", "B", "A", "B", "A", "B"}; !slices.Equal(calls, want) {
		t.Fatalf("call order %v, want %v", calls, want)
	}
	for i, c := range s {
		if len(c.ms) != 3 {
			t.Fatalf("cell %d has %d samples, want 3", i, len(c.ms))
		}
	}
	if _, err := pairs(cells, s); err != nil {
		t.Fatal(err)
	}
}

// TestPairsRejectDisagreement: a pair whose algorithms disagree on the
// optimal slack is an error naming the instance, in every table.
func TestPairsRejectDisagreement(t *testing.T) {
	cells := []Cell{{Table: "table1", Name: "m1_n2/b8/lillis"}, {Table: "table1", Name: "m1_n2/b8/new"}}
	s := []sampled{{ms: []float64{1}, slack: 500}, {ms: []float64{1}, slack: 499}}
	_, err := pairs(cells, s)
	if err == nil || !strings.Contains(err.Error(), "table1 m1_n2/b8: algorithms disagree") {
		t.Fatalf("pairs = %v, want a disagreement error", err)
	}
}

func TestMedianAndPairedRatio(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {[]float64{7}, 7}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !slices.Equal(xs, []float64{3, 1, 2}) {
		t.Fatalf("median reordered its input: %v", xs)
	}
	// The per-rep ratios are 2, 10 and 0.2: their median is 2, while the
	// ratio of the medians would be 12/10.
	if got := pairedRatio([]float64{10, 100, 12}, []float64{5, 10, 60}); got != 2 {
		t.Fatalf("pairedRatio = %g, want 2", got)
	}
}

func TestNormalize(t *testing.T) {
	got := normalize([]float64{2, 4, 10})
	want := []float64{1, 2, 5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("normalize = %v, want %v", got, want)
		}
	}
	if out := normalize(nil); len(out) != 0 {
		t.Fatal("normalize(nil) not empty")
	}
	if out := normalize([]float64{0, 5}); out[0] != 0 || out[1] != 5 {
		t.Fatalf("zero-leading series must pass through, got %v", out)
	}
}
