package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bufferkit"
)

// writeChipFixture generates a contended instance and writes it where
// runChip can load it.
func writeChipFixture(t *testing.T) string {
	t.Helper()
	inst := bufferkit.GenerateChip(bufferkit.ChipGenOpts{
		W: 10, H: 10, Nets: 40, Capacity: 2, Contention: 0.7, Seed: 3,
	})
	path := filepath.Join(t.TempDir(), "chip.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bufferkit.WriteChipInstance(f, inst); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunChip(t *testing.T) {
	path := writeChipFixture(t)
	var out strings.Builder
	err := runChip(bg(), &out, path, "", 6, "new", 0, chipOpts{verify: true})
	if err != nil {
		t.Fatalf("runChip: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"chip: 40 nets on a 10x10 site grid", "round ", "feasible: true", "verified: every placement"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunChipFlagConflicts(t *testing.T) {
	path := writeChipFixture(t)
	// An explicit tiny budget still verifies: the repair pass delivers a
	// feasible allocation.
	var out strings.Builder
	err := runChip(bg(), &out, path, "", 6, "new", 0,
		chipOpts{rounds: 1, verify: true})
	if err != nil {
		t.Fatalf("runChip rounds=1: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "repair") {
		t.Fatalf("1-round budget produced no repair round:\n%s", out.String())
	}

	if err := runChip(bg(), io.Discard, filepath.Join(t.TempDir(), "missing.json"),
		"", 6, "new", 0, chipOpts{}); err == nil {
		t.Fatal("missing instance file accepted")
	}
}

// TestRunWithReduction: -reduce -1 (dominance-only) composes with -verify —
// the remapped placement must reproduce the reported slack against the
// caller's full library.
func TestRunWithReduction(t *testing.T) {
	if err := run(bg(), io.Discard, testdata+"random12.net", testdata+"lib8.buf",
		0, "new", -1, true, true); err != nil {
		t.Fatal(err)
	}
	// Clustering to 2 types is lossy but must still verify self-consistently.
	if err := run(bg(), io.Discard, testdata+"random12.net", testdata+"lib8.buf",
		0, "new", 2, false, true); err != nil {
		t.Fatal(err)
	}
}
