package main

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"bufferkit"
)

const testdata = "../../testdata/"

func bg() context.Context { return context.Background() }

func TestRunBatchDirectory(t *testing.T) {
	var out strings.Builder
	if err := runBatch(bg(), &out, testdata, "", 8, "new", 0, 2, true); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"line", "random12", "batch: 2/2 nets"} {
		if !strings.Contains(got, want) {
			t.Fatalf("batch output missing %q:\n%s", want, got)
		}
	}
}

// TestRunBatchAllAlgorithms: batch mode now dispatches through the
// algorithm registry, so every multi-type-capable algorithm works.
func TestRunBatchAllAlgorithms(t *testing.T) {
	for _, algo := range []string{"lillis", "costslack"} {
		var out strings.Builder
		if err := runBatch(bg(), &out, testdata, "", 8, algo, 0, 2, true); err != nil {
			t.Fatalf("%s: %v\n%s", algo, err, out.String())
		}
		if !strings.Contains(out.String(), "batch: 2/2 nets") {
			t.Fatalf("%s: incomplete batch:\n%s", algo, out.String())
		}
	}
}

// TestRunBatchCanceled: a pre-canceled context stops the batch before any
// net completes and surfaces the cancellation as an error.
func TestRunBatchCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(bg())
	cancel()
	var out strings.Builder
	err := runBatch(ctx, &out, testdata, "", 8, "new", 0, 2, false)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(out.String(), "batch: 0/2 nets") {
		t.Fatalf("canceled batch still completed nets:\n%s", out.String())
	}
}

func TestRunBatchErrors(t *testing.T) {
	var out strings.Builder
	cases := []struct {
		name string
		err  string
		f    func() error
	}{
		{"empty dir", "no *.net files", func() error {
			return runBatch(bg(), &out, "..", "", 8, "new", 0, 0, false)
		}},
		{"bad algo", "unknown -algo", func() error {
			return runBatch(bg(), &out, testdata, "", 8, "nope", 0, 0, false)
		}},
		{"no library", "provide -lib", func() error {
			return runBatch(bg(), &out, testdata, "", 0, "new", 0, 0, false)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f()
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("err = %v, want substring %q", err, tc.err)
			}
		})
	}
}

func TestRunNewAlgorithm(t *testing.T) {
	if err := run(bg(), io.Discard, testdata+"random12.net", testdata+"lib8.buf", 0, "new", 0, true, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, algo := range []string{"new", "lillis", "costslack"} {
		if err := run(bg(), io.Discard, testdata+"line.net", "", 8, algo, 0, false, true); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
	// Both the historical alias and the registry name reach van Ginneken.
	for _, algo := range []string{"vg", "vanginneken"} {
		if err := run(bg(), io.Discard, testdata+"line.net", "", 1, algo, 0, false, true); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}

func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(bg())
	cancel()
	err := run(ctx, io.Discard, testdata+"line.net", "", 8, "new", 0, false, false)
	if err == nil || !errors.Is(err, bufferkit.ErrCanceled) {
		t.Fatalf("err = %v, want bufferkit.ErrCanceled", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		err  string
		f    func() error
	}{
		{"missing net", "-net is required", func() error {
			return run(bg(), io.Discard, "", "", 8, "new", 0, false, false)
		}},
		{"no library", "provide -lib", func() error {
			return run(bg(), io.Discard, testdata+"line.net", "", 0, "new", 0, false, false)
		}},
		{"both libs", "mutually exclusive", func() error {
			return run(bg(), io.Discard, testdata+"line.net", testdata+"lib8.buf", 4, "new", 0, false, false)
		}},
		{"bad algo", "unknown -algo", func() error {
			return run(bg(), io.Discard, testdata+"line.net", "", 8, "nope", 0, false, false)
		}},
		{"vg multi-type", "single-type", func() error {
			return run(bg(), io.Discard, testdata+"line.net", "", 8, "vg", 0, false, false)
		}},
		{"missing file", "no such file", func() error {
			return run(bg(), io.Discard, testdata+"missing.net", "", 8, "new", 0, false, false)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f()
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("err = %v, want substring %q", err, tc.err)
			}
		})
	}
}

// TestRunYield: the -yield mode reports the sweep header, the slack
// distribution, the yield line and the placement summary.
func TestRunYield(t *testing.T) {
	var out strings.Builder
	o := yieldOpts{samples: 16, sigma: 0.08, seed: 1, robust: true, corners: true, placement: true}
	if err := runYield(bg(), &out, testdata+"random12.net", testdata+"lib8.buf", 0, "new", 0, o); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"yield sweep: 21 corners", "slack: mean", "optimal yield:",
		"distinct optima", "robust choice", "buffers:",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("yield output missing %q:\n%s", want, got)
		}
	}
}

// TestRunYieldDeterministic: two identical invocations print identical
// reports apart from the runtime line.
func TestRunYieldDeterministic(t *testing.T) {
	render := func() string {
		var out strings.Builder
		o := yieldOpts{samples: 24, sigma: 0.1, seed: 7}
		if err := runYield(bg(), &out, testdata+"random12.net", "", 8, "new", 0, o); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(out.String(), "\n")
		kept := lines[:0]
		for _, l := range lines {
			if !strings.Contains(l, "runtime:") {
				kept = append(kept, l)
			}
		}
		return strings.Join(kept, "\n")
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("yield reports differ across identical seeds:\n--- a\n%s\n--- b\n%s", a, b)
	}
}

// TestRunYieldErrors covers the yield-mode flag validation paths.
func TestRunYieldErrors(t *testing.T) {
	cases := []struct {
		name string
		err  string
		o    yieldOpts
		algo string
	}{
		{"negative samples", "nonnegative", yieldOpts{samples: -1}, "new"},
		{"bad sigma", "must be in", yieldOpts{samples: 4, sigma: 0.9}, "new"},
		{"wrong algorithm", "not supported", yieldOpts{samples: 4, sigma: 0.1}, "lillis"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runYield(bg(), io.Discard, testdata+"random12.net", "", 8, tc.algo, 0, tc.o)
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("err = %v, want substring %q", err, tc.err)
			}
		})
	}
}
