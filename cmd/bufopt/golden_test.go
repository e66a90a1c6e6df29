package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bufferkit"
)

// -update rewrites the golden files instead of comparing against them:
//
//	go test ./cmd/bufopt -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

var (
	runtimeRe = regexp.MustCompile(`runtime: \S+`)
	totalsRe  = regexp.MustCompile(`\S+ total \([0-9.]+ nets/s\)`)
)

// scrub replaces the wall-clock parts of bufopt output (runtimes, nets/s)
// with fixed placeholders so golden comparisons only see the stable text.
func scrub(s string) string {
	s = runtimeRe.ReplaceAllString(s, "runtime: <TIME>")
	s = totalsRe.ReplaceAllString(s, "<TIME> total (<RATE> nets/s)")
	return s
}

// checkGolden compares got against testdata/golden/<name>, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (run with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestGoldenSingleNet pins the complete single-net report — header, stats,
// slack, verification, placement listing — for the default algorithm.
func TestGoldenSingleNet(t *testing.T) {
	var out strings.Builder
	if err := run(bg(), &out, testdata+"line.net", testdata+"lib8.buf", 0, "new", "transient", 0, true, true); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "single_line.golden", scrub(out.String()))
}

// TestGoldenSingleCostSlack pins the cost–slack frontier formatting.
func TestGoldenSingleCostSlack(t *testing.T) {
	var out strings.Builder
	if err := run(bg(), &out, testdata+"line.net", testdata+"lib8.buf", 0, "costslack", "transient", 0, false, true); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "single_line_costslack.golden", scrub(out.String()))
}

// TestGoldenBatch pins batch-mode output. Batch lines stream through
// StreamOrdered, so the file order (and therefore the golden text) is
// stable no matter how the workers are scheduled.
func TestGoldenBatch(t *testing.T) {
	var out strings.Builder
	if err := runBatch(bg(), &out, testdata, testdata+"lib8.buf", 0, "new", "transient", 0, 2, true); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "batch.golden", scrub(out.String()))
}

// TestBatchOrderDeterministic is the regression test for the completion-
// order bug: with many same-size nets racing on many workers, output lines
// must still appear in sorted-path order, identically across runs.
func TestBatchOrderDeterministic(t *testing.T) {
	dir := t.TempDir()
	var names []string
	// Reverse-alphabetical creation order so any accidental dependence on
	// creation or completion order breaks the sorted expectation.
	for i := 7; i >= 0; i-- {
		name := fmt.Sprintf("net%c", 'a'+i)
		tr := bufferkit.RandomNet(bufferkit.NetOpts{Sinks: 4, Seed: int64(i)})
		f, err := os.Create(filepath.Join(dir, name+".net"))
		if err != nil {
			t.Fatal(err)
		}
		err = bufferkit.WriteNet(f, &bufferkit.Net{Name: name, Tree: tr, Driver: bufferkit.Driver{R: 0.2, K: 15}})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}

	runOnce := func() string {
		var out strings.Builder
		if err := runBatch(bg(), &out, dir, "", 8, "new", "transient", 0, 8, true); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	first := runOnce()

	// Lines must follow sorted-path order: neta, netb, … neth.
	lines := strings.Split(strings.TrimSpace(first), "\n")
	if len(lines) != len(names)+1 { // one per net + totals
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(names)+1, first)
	}
	for i := 0; i < len(names); i++ {
		want := fmt.Sprintf("net%c", 'a'+i)
		if !strings.HasPrefix(lines[i], want) {
			t.Fatalf("line %d = %q, want net %q first: batch output is not in input order", i, lines[i], want)
		}
	}
	for round := 0; round < 3; round++ {
		if again := runOnce(); scrub(again) != scrub(first) {
			t.Fatalf("batch output differs between runs:\n--- first ---\n%s\n--- again ---\n%s", first, again)
		}
	}
}
