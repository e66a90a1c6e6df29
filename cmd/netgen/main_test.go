package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bufferkit"
)

func gen(t *testing.T, kind string, emitLib int, inverters bool) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out")
	err := run(kind, out, "t", 3, 10, 12, 2000, 5, 800, 2, 3, 400, 0.2, 0.2, 10, emitLib, inverters)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestGenerateEveryKind(t *testing.T) {
	for _, kind := range []string{"twopin", "balanced", "random", "industrial"} {
		t.Run(kind, func(t *testing.T) {
			out := gen(t, kind, 0, false)
			net, err := bufferkit.ParseNet(strings.NewReader(out))
			if err != nil {
				t.Fatalf("emitted net does not parse: %v", err)
			}
			if net.Tree.NumSinks() < 1 {
				t.Fatal("no sinks")
			}
			if net.Driver.R != 0.2 || net.Driver.K != 10 {
				t.Fatalf("driver lost: %+v", net.Driver)
			}
		})
	}
}

func TestGenerateLibraryFile(t *testing.T) {
	out := gen(t, "random", 6, true)
	lib, err := bufferkit.ParseLibrary(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(lib) != 6 || !lib.HasInverters() {
		t.Fatalf("library wrong: %+v", lib)
	}
}

func TestGenerateUnknownKind(t *testing.T) {
	err := run("bogus", filepath.Join(t.TempDir(), "x"), "", 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, false)
	if err == nil || !strings.Contains(err.Error(), "unknown -kind") {
		t.Fatalf("err = %v", err)
	}
}

// TestEmittedNetIsOptimizable closes the loop: generate → parse → optimize.
func TestEmittedNetIsOptimizable(t *testing.T) {
	out := gen(t, "industrial", 0, false)
	net, err := bufferkit.ParseNet(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	solver, err := bufferkit.NewSolver(bufferkit.WithLibrary(bufferkit.GenerateLibrary(4)), bufferkit.WithDriver(net.Driver))
	if err != nil {
		t.Fatal(err)
	}
	defer solver.Close()
	res, err := solver.Run(context.Background(), net.Tree)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := bufferkit.Evaluate(net.Tree, bufferkit.GenerateLibrary(4), res.Placement, net.Driver)
	if err != nil {
		t.Fatal(err)
	}
	if d := chk.Slack - res.Slack; d > 1e-6 || d < -1e-6 {
		t.Fatalf("oracle %g != reported %g", chk.Slack, res.Slack)
	}
}

// TestChipGolden pins -chip output to a checked-in golden file: instances
// are deterministic per seed, and the emitted JSON must parse back into a
// valid instance with the requested shape and real site contention.
func TestChipGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "chip.json")
	if err := runChip(out, 6, 6, 4, 2, 0.5, 7); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/chip_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("-chip output differs from testdata/chip_golden.json:\n%s", got)
	}

	inst, err := bufferkit.ParseChipInstance(strings.NewReader(string(got)))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Grid.W != 6 || inst.Grid.H != 6 || len(inst.Nets) != 4 {
		t.Fatalf("parsed instance is %dx%d with %d nets", inst.Grid.W, inst.Grid.H, len(inst.Nets))
	}
}

// TestChipContentionShapesDemand: contention 1 routes every net through the
// central window, so some central site must be requested by several nets;
// contention 0 spreads them out.
func TestChipContentionShapesDemand(t *testing.T) {
	demand := func(contention float64) int {
		inst := bufferkit.GenerateChip(bufferkit.ChipGenOpts{
			W: 12, H: 12, Nets: 48, Capacity: 1, Contention: contention, Seed: 11,
		})
		use := map[int]int{}
		peak := 0
		for i := range inst.Nets {
			for _, s := range inst.Nets[i].Site {
				if s >= 0 {
					use[s]++
					if use[s] > peak {
						peak = use[s]
					}
				}
			}
		}
		return peak
	}
	hot, cold := demand(1), demand(0)
	if hot <= cold {
		t.Fatalf("peak site demand %d under full contention not above %d under none", hot, cold)
	}
}
