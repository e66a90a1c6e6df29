package variation

import (
	"context"
	"errors"
	"os"
	"testing"

	"bufferkit/internal/core"
	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/netgen"
	"bufferkit/internal/netlist"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/testutil"
	"bufferkit/internal/tree"
)

var testDriver = delay.Driver{R: 0.2, K: 15}

// random12 loads the repository's random12 testdata net.
func random12(t *testing.T) (*tree.Tree, delay.Driver) {
	t.Helper()
	f, err := os.Open("../../testdata/random12.net")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	net, err := netlist.ParseNet(f)
	if err != nil {
		t.Fatal(err)
	}
	return net.Tree, net.Driver
}

func TestSamplerDeterministic(t *testing.T) {
	s := Sampler{Params: Uniform(0.07), Seed: 42}
	a := s.Corners(64)
	b := s.Corners(64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corner %d differs across identical samplers: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A prefix draw must agree with the longer sequence.
	short := s.Corners(8)
	for i := range short {
		if short[i] != a[i] {
			t.Fatalf("corner %d differs between Corners(8) and Corners(64)", i)
		}
	}
	other := Sampler{Params: Uniform(0.07), Seed: 43}.Corners(64)
	same := 0
	for i := range a {
		if a[i].LibR == other[i].LibR {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical corner factors")
	}
	for i, c := range a {
		if err := c.Validate(); err != nil {
			t.Fatalf("sampled corner %d invalid: %v", i, err)
		}
	}
}

func TestSigmaZeroSamplesNominal(t *testing.T) {
	for i, c := range (Sampler{Params: Uniform(0), Seed: 7}).Corners(16) {
		if !c.IsNominal() {
			t.Fatalf("sigma=0 corner %d not nominal: %+v", i, c)
		}
	}
	if !Nominal().IsNominal() {
		t.Fatal("Nominal() not nominal")
	}
}

func TestCornerValidate(t *testing.T) {
	if err := Nominal().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range ProcessCorners() {
		if err := c.Validate(); err != nil {
			t.Fatalf("process corner %q invalid: %v", c.Name, err)
		}
	}
	bad := Nominal()
	bad.WireC = 0
	var verr *solvererr.ValidationError
	if err := bad.Validate(); !errors.As(err, &verr) {
		t.Fatalf("zero factor: got %v, want ValidationError", err)
	}
	if err := (Corner{}).Validate(); err == nil {
		t.Fatal("zero-value corner validated")
	}
	if err := (Params{LibR: -0.1}).Validate(); err == nil {
		t.Fatal("negative sigma validated")
	}
	if err := (Params{WireC: MaxSigma * 2}).Validate(); err == nil {
		t.Fatal("oversized sigma validated")
	}
}

// TestSweepNominalMatchesCore: a one-corner nominal sweep must reproduce
// the plain engine's slack and placement bit for bit.
func TestSweepNominalMatchesCore(t *testing.T) {
	tr, drv := random12(t)
	lib := library.Generate(8)
	want, err := core.Insert(tr, lib, core.Options{Driver: drv})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(context.Background(), tr, lib, Config{
		Corners: []Corner{Nominal()},
		Driver:  drv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples[0].Slack != want.Slack {
		t.Fatalf("nominal sweep slack %.17g != core slack %.17g", res.Samples[0].Slack, want.Slack)
	}
	if !placementsEqual(res.Placement, want.Placement) {
		t.Fatal("nominal sweep placement differs from core")
	}
	if res.Yield != 1 || res.OptimalYield != 1 {
		t.Fatalf("single feasible corner should have yield 1, got %g/%g", res.Yield, res.OptimalYield)
	}
}

// TestSweepDeterministicAcrossWorkers: the result must not depend on the
// worker count — samples land by index and groups form in sample order.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	tr, drv := random12(t)
	lib := library.Generate(8)
	corners := append([]Corner{Nominal()}, Sampler{Params: Uniform(0.15), Seed: 3}.Corners(48)...)
	var base *Result
	for _, workers := range []int{1, 4, 16} {
		res, err := Sweep(context.Background(), tr, lib, Config{
			Corners: corners, Driver: drv, Robust: true, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Yield != base.Yield || res.OptimalYield != base.OptimalYield ||
			res.Chosen != base.Chosen || len(res.Placements) != len(base.Placements) ||
			res.Dist != base.Dist {
			t.Fatalf("workers=%d: result differs from workers=1", workers)
		}
		for i := range res.Samples {
			if res.Samples[i] != base.Samples[i] {
				t.Fatalf("workers=%d: sample %d differs: %+v vs %+v", workers, i, res.Samples[i], base.Samples[i])
			}
		}
	}
}

// TestSweepZeroAllocPerSample is the acceptance assertion: 256 Monte Carlo
// samples on the random12 net, each re-optimizing the net under a fresh
// corner on a warm SweepEngine, must perform zero steady-state heap
// allocations per sample.
func TestSweepZeroAllocPerSample(t *testing.T) {
	tr, drv := random12(t)
	lib := library.Generate(8)
	corners := append([]Corner{Nominal()}, Sampler{Params: Uniform(0.08), Seed: 1}.Corners(255)...)

	eng := NewSweepEngine(tr, lib, core.Options{Driver: drv})
	ctx := context.Background()
	// Warm pass: grow the arena and scratch to the sweep's high-water mark.
	for _, c := range corners {
		if _, _, _, err := eng.RunCorner(ctx, c); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(len(corners), func() {
		c := corners[i%len(corners)]
		i++
		if _, _, _, err := eng.RunCorner(ctx, c); err != nil {
			t.Fatal(err)
		}
	})
	eng.Release()
	if allocs != 0 {
		t.Fatalf("warm sweep allocates %.2f allocs per sample, want 0", allocs)
	}
}

// TestSweepWholeRunAllocBudget bounds the full Sweep call: across 256
// samples the fixed setup (engines, result slices, placement groups) must
// amortize to well under one allocation per sample.
func TestSweepWholeRunAllocBudget(t *testing.T) {
	tr, drv := random12(t)
	lib := library.Generate(8)
	corners := append([]Corner{Nominal()}, Sampler{Params: Uniform(0.08), Seed: 1}.Corners(255)...)
	// Sweep workers reuse warm engines from core's pool across sweeps, so
	// the measurement sees the steady state of a long-lived service.
	cfg := Config{Corners: corners, Driver: drv, Workers: 1}
	if _, err := Sweep(context.Background(), tr, lib, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Sweep(context.Background(), tr, lib, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if perSample := allocs / float64(len(corners)); perSample >= 1 {
		t.Fatalf("full sweep allocates %.2f allocs per sample (%.0f total), want amortized < 1", perSample, allocs)
	}
}

// TestSweepRobustSelection: with enough variation the optimal placement
// disagrees across corners; robust selection must pick the group with the
// maximum fixed-placement yield and report its stats coherently.
func TestSweepRobustSelection(t *testing.T) {
	tr, drv := random12(t)
	lib := library.Generate(8)
	corners := append([]Corner{Nominal()}, Sampler{Params: Uniform(0.25), Seed: 5}.Corners(96)...)
	res, err := Sweep(context.Background(), tr, lib, Config{
		Corners: corners, Driver: drv, Robust: true, Target: res0Target(t, tr, lib, drv),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placements) < 2 {
		t.Fatalf("sigma=0.25 over 97 corners produced %d distinct optima; test needs ≥ 2", len(res.Placements))
	}
	for g, grp := range res.Placements {
		if grp.Yield > res.Yield {
			t.Fatalf("group %d yield %g beats chosen yield %g", g, grp.Yield, res.Yield)
		}
		if grp.Yield > res.OptimalYield+1e-15 {
			t.Fatalf("group %d fixed yield %g exceeds optimal yield %g", g, grp.Yield, res.OptimalYield)
		}
		if grp.WorstSlack > grp.MeanSlack {
			t.Fatalf("group %d worst slack %g above mean %g", g, grp.WorstSlack, grp.MeanSlack)
		}
	}
	counts := 0
	for _, grp := range res.Placements {
		counts += grp.Count
	}
	if counts != len(corners) {
		t.Fatalf("group counts sum to %d, want %d", counts, len(corners))
	}
	// The distribution must bracket the per-corner optima coherently.
	d := res.Dist
	if !(d.Min <= d.P5 && d.P5 <= d.P50 && d.P50 <= d.P95 && d.P95 <= d.Max) {
		t.Fatalf("incoherent distribution: %+v", d)
	}
}

// res0Target picks a target between the nominal optimum and the sweep
// minimum so yield is strictly between 0 and 1 and selection pressure is
// real.
func res0Target(t *testing.T, tr *tree.Tree, lib library.Library, drv delay.Driver) float64 {
	t.Helper()
	res, err := core.Insert(tr, lib, core.Options{Driver: drv})
	if err != nil {
		t.Fatal(err)
	}
	return res.Slack - 40
}

// TestSweepCancellation: a canceled context aborts the sweep with a
// PartialError wrapping ErrCanceled and reports partial progress.
func TestSweepCancellation(t *testing.T) {
	tr := netgen.Random(netgen.Opts{Sinks: 30, Seed: 9})
	lib := library.Generate(16)
	corners := Sampler{Params: Uniform(0.05), Seed: 2}.Corners(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, tr, lib, Config{Corners: corners, Driver: testDriver})
	var perr *PartialError
	if !errors.As(err, &perr) {
		t.Fatalf("got %v, want *PartialError", err)
	}
	if !errors.Is(err, solvererr.ErrCanceled) {
		t.Fatalf("PartialError does not wrap ErrCanceled: %v", err)
	}
	if perr.Total != len(corners) || perr.Completed < 0 || perr.Completed >= perr.Total {
		t.Fatalf("bad progress accounting: %d/%d", perr.Completed, perr.Total)
	}
}

// TestSweepValidation: empty corner sets and malformed corners are
// rejected with ValidationErrors before any engine runs.
func TestSweepValidation(t *testing.T) {
	tr := netgen.Random(netgen.Opts{Sinks: 4, Seed: 1})
	lib := library.Generate(4)
	var verr *solvererr.ValidationError
	if _, err := Sweep(context.Background(), tr, lib, Config{}); !errors.As(err, &verr) {
		t.Fatalf("empty corners: got %v, want ValidationError", err)
	}
	bad := Config{Corners: []Corner{Nominal(), {Name: "bad"}}}
	if _, err := Sweep(context.Background(), tr, lib, bad); !errors.As(err, &verr) {
		t.Fatalf("invalid corner: got %v, want ValidationError", err)
	}
}

// TestFixedSlackMatchesOracle: the alloc-free evaluator must agree with
// delay.Evaluate bit for bit on arbitrary placements and corners.
func TestFixedSlackMatchesOracle(t *testing.T) {
	tr, drv := random12(t)
	lib := library.Generate(8)
	eng := NewSweepEngine(tr, lib, core.Options{Driver: drv})
	defer eng.Release()
	corners := append(ProcessCorners(), Sampler{Params: Uniform(0.2), Seed: 8}.Corners(16)...)
	for _, c := range corners {
		slack, crit, plc, err := eng.RunCorner(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		// Build the scaled instance independently and ask the oracle.
		scaled := tr.Clone()
		for i := range scaled.Verts {
			scaled.Verts[i].EdgeR *= c.WireR
			scaled.Verts[i].EdgeC *= c.WireC
		}
		slib := append(library.Library(nil), lib...)
		for i := range slib {
			slib[i].R *= c.LibR
			slib[i].K *= c.LibK
			slib[i].Cin *= c.LibCin
		}
		want, err := delay.Evaluate(scaled, slib, plc, drv)
		if err != nil {
			t.Fatal(err)
		}
		// The DP and the oracle differ only in summation association.
		if !testutil.AlmostEqual(want.Slack, slack) {
			t.Fatalf("corner %q: DP slack %.17g != oracle %.17g", c.Name, slack, want.Slack)
		}
		if want.CriticalSink != crit {
			t.Fatalf("corner %q: critical sink %d != oracle %d", c.Name, crit, want.CriticalSink)
		}
		// The sweep evaluator mirrors the oracle's operation order exactly,
		// so its slack must be bit-identical.
		if got := eng.FixedSlack(c, plc); got != want.Slack {
			t.Fatalf("corner %q: FixedSlack %.17g != oracle %.17g", c.Name, got, want.Slack)
		}
	}
}

// IsNominal reports whether every factor is exactly 1.
func (c Corner) IsNominal() bool {
	return c.LibR == 1 && c.LibK == 1 && c.LibCin == 1 && c.WireR == 1 && c.WireC == 1
}

// Corners draws the first n corners of the sampler's sequence, named
// "mc0" … "mc<n-1>".
func (s Sampler) Corners(n int) []Corner {
	out := make([]Corner, n)
	s.CornersInto(out)
	return out
}
