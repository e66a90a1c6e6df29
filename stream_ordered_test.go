package bufferkit_test

import (
	"context"
	"testing"

	"bufferkit"
)

// TestStreamOrdered: results arrive strictly in input order with every
// index present, and agree with RunBatch.
func TestStreamOrdered(t *testing.T) {
	lib := bufferkit.GenerateLibrary(8)
	nets := make([]*bufferkit.Tree, 16)
	for i := range nets {
		nets[i] = bufferkit.RandomNet(bufferkit.NetOpts{Sinks: 3 + i%4, Seed: int64(i)})
	}
	solver, err := bufferkit.NewSolver(bufferkit.WithLibrary(lib), bufferkit.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := solver.RunBatch(context.Background(), nets)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		next := 0
		for res, err := range solver.StreamOrdered(context.Background(), nets) {
			if err != nil {
				t.Fatalf("net %d: %v", res.Index, err)
			}
			if res.Index != next {
				t.Fatalf("round %d: got index %d, want %d (out of order)", round, res.Index, next)
			}
			if res.Slack != want[res.Index].Slack {
				t.Fatalf("net %d: slack %v != RunBatch's %v", res.Index, res.Slack, want[res.Index].Slack)
			}
			next++
		}
		if next != len(nets) {
			t.Fatalf("round %d: yielded %d of %d nets", round, next, len(nets))
		}
	}
}

// TestStreamOrderedEarlyBreak: breaking out mid-iteration releases the
// workers without yielding further nets.
func TestStreamOrderedEarlyBreak(t *testing.T) {
	lib := bufferkit.GenerateLibrary(4)
	nets := make([]*bufferkit.Tree, 8)
	for i := range nets {
		nets[i] = bufferkit.RandomNet(bufferkit.NetOpts{Sinks: 2, Seed: int64(i)})
	}
	solver, err := bufferkit.NewSolver(bufferkit.WithLibrary(lib), bufferkit.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for res, err := range solver.StreamOrdered(context.Background(), nets) {
		if err != nil {
			t.Fatalf("net %d: %v", res.Index, err)
		}
		if seen++; seen == 3 {
			break
		}
	}
	if seen != 3 {
		t.Fatalf("saw %d results, want 3", seen)
	}
}

// TestStreamOrderedConfigError: a drivers-length mismatch is yielded once
// with Index = -1, exactly like Stream.
func TestStreamOrderedConfigError(t *testing.T) {
	lib := bufferkit.GenerateLibrary(2)
	nets := []*bufferkit.Tree{bufferkit.RandomNet(bufferkit.NetOpts{Sinks: 2, Seed: 1})}
	solver, err := bufferkit.NewSolver(
		bufferkit.WithLibrary(lib),
		bufferkit.WithDrivers(make([]bufferkit.Driver, 3)),
	)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for res, err := range solver.StreamOrdered(context.Background(), nets) {
		count++
		if res.Index != -1 || err == nil {
			t.Fatalf("got (%d, %v), want index -1 with an error", res.Index, err)
		}
	}
	if count != 1 {
		t.Fatalf("config error yielded %d times, want once", count)
	}
}

// TestAlgorithmInfos: every built-in algorithm self-describes.
func TestAlgorithmInfos(t *testing.T) {
	infos := bufferkit.AlgorithmInfos()
	if len(infos) < 4 {
		t.Fatalf("got %d algorithms, want ≥ 4", len(infos))
	}
	byName := map[string]string{}
	for _, in := range infos {
		byName[in.Name] = in.Description
	}
	for _, name := range []string{bufferkit.AlgoNew, bufferkit.AlgoLillis, bufferkit.AlgoVanGinneken, bufferkit.AlgoCostSlack} {
		if byName[name] == "" {
			t.Errorf("algorithm %q has no description", name)
		}
	}
	// The engines have one candidate representation, so there are no
	// representation-pinned registry entries.
	for _, name := range []string{"core", "core-soa"} {
		if _, ok := byName[name]; ok {
			t.Errorf("unexpected registry entry %q", name)
		}
	}
}
