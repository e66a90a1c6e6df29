package core

import (
	"context"
	"errors"
	"testing"

	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/netgen"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/tree"
)

// infeasibleTree builds a net whose run dies mid-tree: a negative-polarity
// sink with no buffer position anywhere, so the polarity merge finds both
// parities empty long before the root.
func infeasibleTree() *tree.Tree {
	b := tree.NewBuilder()
	p := b.AddInternal(0, 0.1, 2)
	b.AddSinkPol(p, 0.1, 2, 3, 900, tree.Negative)
	b.AddSink(p, 0.1, 2, 3, 900)
	return b.MustBuild()
}

// TestEngineWarmAfterErrorPaths: an error-path exit from runContext —
// mid-tree infeasibility or a fired context — must leave a pooled engine as
// reusable as a clean run does: the next Reset+Run is bit-identical to a
// fresh engine's, and the warm steady state stays at zero allocations.
func TestEngineWarmAfterErrorPaths(t *testing.T) {
	lib := library.GenerateWithInverters(6)
	tr := netgen.TwoPin(8000, 40, 12, 1000, netgen.PaperWire())
	opt := Options{Driver: delay.Driver{R: 0.25}}
	bad := infeasibleTree()

	// Ground truth from a throwaway fresh engine.
	fresh := NewEngine()
	if err := fresh.Reset(tr, lib, opt); err != nil {
		t.Fatal(err)
	}
	want := &Result{}
	if err := fresh.Run(want); err != nil {
		t.Fatal(err)
	}

	eng := NewEngine()
	res := &Result{}

	// Error path 1: mid-tree infeasibility.
	if err := eng.Reset(bad, lib, opt); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(res); !errors.Is(err, solvererr.ErrInfeasible) {
		t.Fatalf("infeasible net returned %v, want ErrInfeasible", err)
	}

	// Error path 2: context already fired when the run starts.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.Reset(tr, lib, opt); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunContext(canceled, res); !errors.Is(err, solvererr.ErrCanceled) {
		t.Fatalf("canceled run returned %v, want ErrCanceled", err)
	}

	// The engine must now behave exactly like a fresh one...
	if err := eng.Run(res); err != nil {
		t.Fatal(err)
	}
	if res.Slack != want.Slack || res.Candidates != want.Candidates ||
		len(res.Placement) != len(want.Placement) {
		t.Fatalf("post-error run diverged: slack %g != %g, %d candidates != %d",
			res.Slack, want.Slack, res.Candidates, want.Candidates)
	}
	for i := range res.Placement {
		if res.Placement[i] != want.Placement[i] {
			t.Fatalf("placement[%d] = %+v != %+v", i, res.Placement[i], want.Placement[i])
		}
	}

	// ...including the zero-allocation warm steady state. One more error
	// exit immediately before the measurement, so the measured runs are
	// the first ones after an aborted run (the error itself may allocate
	// its wrapping; the engine afterwards must not).
	if err := eng.RunContext(canceled, res); !errors.Is(err, solvererr.ErrCanceled) {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := eng.Run(res); err != nil {
			t.Fatal(err)
		}
		if res.Slack != want.Slack {
			t.Fatalf("warm run diverged: %g != %g", res.Slack, want.Slack)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm run after error exits allocates %.1f/op, want 0", allocs)
	}
}
