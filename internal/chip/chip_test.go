package chip

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"bufferkit/internal/core"
	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/tree"
)

// contended returns a moderately contended instance for the fast tests.
func contended(nets int, seed int64) *Instance {
	return Generate(GenOpts{W: 12, H: 12, Nets: nets, Capacity: 2, Contention: 0.7, Seed: seed})
}

func solveOK(t *testing.T, inst *Instance, cfg Config) *Result {
	t.Helper()
	res, err := Solve(context.Background(), inst, library.Generate(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkFeasible asserts the result's placements respect every site capacity
// and agree with the reported usage.
func checkFeasible(t *testing.T, inst *Instance, cfg Config, res *Result) {
	t.Helper()
	caps := inst.Capacities(cfg.Capacity)
	usage := make([]int, len(caps))
	for i := range inst.Nets {
		net := &inst.Nets[i]
		for v, s := range net.Site {
			if s != NoSite && res.Placements[i][v] != delay.NoBuffer {
				usage[s]++
			}
		}
	}
	for s := range usage {
		if usage[s] != res.Usage[s] {
			t.Fatalf("site %d: recomputed usage %d != reported %d", s, usage[s], res.Usage[s])
		}
		if usage[s] > caps[s] {
			t.Fatalf("site %d: usage %d exceeds capacity %d", s, usage[s], caps[s])
		}
	}
	if last := res.Rounds[len(res.Rounds)-1]; last.Overflow != 0 {
		t.Fatalf("final round overflow %d != 0", last.Overflow)
	}
	if !res.Feasible {
		t.Fatal("result not marked feasible")
	}
}

func TestChipContendedConverges(t *testing.T) {
	inst := contended(150, 7)
	var cfg Config
	res := solveOK(t, inst, cfg)
	checkFeasible(t, inst, cfg, res)
	if res.Rounds[0].Overflow == 0 {
		t.Fatal("instance not contended: round 1 already feasible")
	}
	if res.Rounds[0].Resolved != len(inst.Nets) {
		t.Fatalf("round 1 resolved %d of %d nets", res.Rounds[0].Resolved, len(inst.Nets))
	}
}

// TestChipAcceptance1000Nets is the issue's acceptance-scale instance: 1000
// nets over a 32×32 grid at capacity 8 with half the nets detoured through
// the central hotspot. The allocator must reach zero overflow inside the
// default pricing budget — without the repair end-game — and the per-round
// overflow must trend monotonically down (windowed, to tolerate the ±1–2
// integer jitter of marginal nets near convergence).
func TestChipAcceptance1000Nets(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance-scale instance; skipped with -short")
	}
	inst := Generate(GenOpts{W: 32, H: 32, Nets: 1000, Capacity: 8, Contention: 0.5, Seed: 1})
	var cfg Config
	res := solveOK(t, inst, cfg)
	checkFeasible(t, inst, cfg, res)
	if res.Rounds[0].Overflow == 0 {
		t.Fatal("instance not contended: round 1 already feasible")
	}
	last := res.Rounds[len(res.Rounds)-1]
	if last.Repair {
		t.Fatalf("pricing did not converge within the round budget; repair pass needed (%d rounds)", len(res.Rounds))
	}
	if last.Overflow != 0 {
		t.Fatalf("final overflow %d != 0 after %d rounds", last.Overflow, len(res.Rounds))
	}
	// Windowed monotone trend: the max overflow over each 4-round window
	// must never exceed the previous window's max.
	const win = 4
	prev := -1
	for lo := 0; lo < len(res.Rounds); lo += win {
		hi := lo + win
		if hi > len(res.Rounds) {
			hi = len(res.Rounds)
		}
		peak := 0
		for _, r := range res.Rounds[lo:hi] {
			if r.Overflow > peak {
				peak = r.Overflow
			}
		}
		if prev >= 0 && peak > prev {
			t.Fatalf("overflow not trending down: window [%d,%d) peak %d > previous window peak %d",
				lo, hi, peak, prev)
		}
		prev = peak
	}
}

func TestChipDeterministicAcrossWorkers(t *testing.T) {
	inst := contended(80, 3)
	a := solveOK(t, inst, Config{Workers: 1})
	b := solveOK(t, inst, Config{Workers: 8})
	if len(a.Rounds) != len(b.Rounds) {
		t.Fatalf("round counts differ: %d vs %d", len(a.Rounds), len(b.Rounds))
	}
	for r := range a.Rounds {
		if a.Rounds[r] != b.Rounds[r] {
			t.Fatalf("round %d records differ:\n%+v\n%+v", r, a.Rounds[r], b.Rounds[r])
		}
	}
	for i := range a.Slacks {
		if a.Slacks[i] != b.Slacks[i] {
			t.Fatalf("net %d slack differs: %.17g vs %.17g", i, a.Slacks[i], b.Slacks[i])
		}
		for v := range a.Placements[i] {
			if a.Placements[i][v] != b.Placements[i][v] {
				t.Fatalf("net %d placement differs at vertex %d", i, v)
			}
		}
	}
}

// TestChipOnRoundStreams asserts OnRound fires once per report, in order,
// matching Result.Rounds — the server's streaming contract.
func TestChipOnRoundStreams(t *testing.T) {
	inst := contended(60, 11)
	var streamed []Round
	cfg := Config{OnRound: func(r Round) { streamed = append(streamed, r) }}
	res := solveOK(t, inst, cfg)
	if len(streamed) != len(res.Rounds) {
		t.Fatalf("streamed %d rounds, result has %d", len(streamed), len(res.Rounds))
	}
	for i := range streamed {
		if streamed[i] != res.Rounds[i] {
			t.Fatalf("streamed round %d differs from result", i)
		}
	}
}

// TestChipSingleNetMatchesEngine: with one net and unbounded capacity the
// allocator must reproduce a plain engine run bit for bit.
func TestChipSingleNetMatchesEngine(t *testing.T) {
	lib := library.Generate(6)
	inst := Generate(GenOpts{W: 10, H: 10, Nets: 1, Capacity: 1 << 20, Contention: 0, Seed: 5})
	net := &inst.Nets[0]
	want, err := core.Insert(net.Tree, lib, core.Options{Driver: net.Driver})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), inst, lib, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 1 {
		t.Fatalf("expected 1 round, got %d", len(res.Rounds))
	}
	ev := delay.Evaluator{}
	ev.Slack(net.Tree, lib, want.Placement, net.Driver)
	if res.Slacks[0] != ev.MinSlack {
		t.Fatalf("slack %.17g != engine-evaluated %.17g", res.Slacks[0], ev.MinSlack)
	}
	for v := range want.Placement {
		if res.Placements[0][v] != want.Placement[v] {
			t.Fatalf("placement differs at vertex %d: %d vs %d",
				v, res.Placements[0][v], want.Placement[v])
		}
	}
}

// TestChipZeroCapacityInfeasible: a net that *needs* a buffer (negative
// polarity sink, inverting library) whose only site is blocked must fail
// with a typed infeasibility, not hang in the pricing loop.
func TestChipZeroCapacityInfeasible(t *testing.T) {
	lib := library.GenerateWithInverters(4)
	b := tree.NewBuilder()
	pos := b.AddBufferPos(0, 0.3, 40)
	b.AddSinkPol(pos, 0.2, 30, 10, 500, tree.Negative)
	inst := &Instance{
		Grid:      Grid{W: 2, H: 1, Capacity: 1},
		Blockages: []Blockage{{0, 0, 0, 0}},
		Nets:      []Net{{Name: "needs_inv", Tree: b.MustBuild(), Site: []int{NoSite, 0, NoSite}}},
	}
	_, err := Solve(context.Background(), inst, lib, Config{})
	if !errors.Is(err, solvererr.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

// TestChipRepairAfterTinyBudget: with a 1-round budget on a contended
// instance the repair pass must still deliver zero overflow.
// TestChipSessionsMatchCold is the allocator-level face of the session
// bit-identity contract: Solve (per-net ECO sessions absorbing price and
// mask patches) must reproduce refSolve, the former cold path that
// re-solves from scratch every round — every round record, every slack,
// every placement, the final prices and usage — including through forced
// repair passes.
func TestChipSessionsMatchCold(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inst   *Instance
		cfg    Config
		repair bool
	}{
		{"converges", contended(80, 3), Config{}, false},
		{"repair", contended(120, 9), Config{Rounds: 1}, true},
		{"repair3", contended(200, 11), Config{Rounds: 3}, true},
		{"dense", Generate(GenOpts{W: 8, H: 8, Nets: 40, Capacity: 1, Contention: 0.8, Seed: 5}), Config{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := refSolve(context.Background(), tc.inst, library.Generate(6), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			b := solveOK(t, tc.inst, tc.cfg)
			if got := a.Rounds[len(a.Rounds)-1].Repair; got != tc.repair {
				t.Fatalf("reference repair pass = %v, want %v", got, tc.repair)
			}
			if len(a.Rounds) != len(b.Rounds) {
				t.Fatalf("round counts differ: cold %d, sessions %d", len(a.Rounds), len(b.Rounds))
			}
			for r := range a.Rounds {
				if a.Rounds[r] != b.Rounds[r] {
					t.Fatalf("round %d records differ:\ncold     %+v\nsessions %+v", r, a.Rounds[r], b.Rounds[r])
				}
			}
			for i := range a.Slacks {
				if a.Slacks[i] != b.Slacks[i] {
					t.Fatalf("net %d slack differs: cold %.17g, sessions %.17g", i, a.Slacks[i], b.Slacks[i])
				}
				for v := range a.Placements[i] {
					if a.Placements[i][v] != b.Placements[i][v] {
						t.Fatalf("net %d placement differs at vertex %d", i, v)
					}
				}
			}
			for s := range a.Prices {
				if a.Prices[s] != b.Prices[s] || a.Usage[s] != b.Usage[s] {
					t.Fatalf("site %d differs: cold price %.17g usage %d, sessions price %.17g usage %d",
						s, a.Prices[s], a.Usage[s], b.Prices[s], b.Usage[s])
				}
			}
		})
	}
}

func TestChipRepairAfterTinyBudget(t *testing.T) {
	inst := contended(120, 9)
	cfg := Config{Rounds: 1}
	res := solveOK(t, inst, cfg)
	checkFeasible(t, inst, cfg, res)
	last := res.Rounds[len(res.Rounds)-1]
	if !last.Repair {
		t.Fatalf("expected terminal repair round, got %+v", last)
	}
	if last.Resolved == 0 {
		t.Fatal("repair pass resolved no nets on a contended instance")
	}
}

func TestChipCancellation(t *testing.T) {
	inst := contended(60, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Solve(ctx, inst, library.Generate(6), Config{})
	var perr *PartialError
	if !errors.As(err, &perr) {
		t.Fatalf("want PartialError, got %v", err)
	}
	if !errors.Is(err, solvererr.ErrCanceled) {
		t.Fatalf("PartialError must wrap ErrCanceled, got %v", err)
	}
	if perr.CompletedRounds != 0 {
		t.Fatalf("pre-canceled context completed %d rounds", perr.CompletedRounds)
	}
}

func TestChipInstanceRoundTrip(t *testing.T) {
	inst := Generate(GenOpts{W: 8, H: 8, Nets: 12, Capacity: 2, Contention: 0.5, Seed: 42})
	inst.Blockages = []Blockage{{0, 0, 1, 0}}
	var buf bytes.Buffer
	if err := WriteInstance(&buf, inst); err != nil {
		t.Fatal(err)
	}
	got, err := ParseInstance(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteInstance(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("instance did not survive a write/parse/write round trip")
	}
}

func TestChipValidateRejects(t *testing.T) {
	mk := func() *Instance { return Generate(GenOpts{W: 6, H: 6, Nets: 2, Seed: 1}) }

	bad := mk()
	bad.Nets[0].Site[1] = bad.Grid.NumSites()
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range site accepted")
	}

	bad = mk()
	bad.Nets[0].Site = bad.Nets[0].Site[:1]
	if err := bad.Validate(); err == nil {
		t.Fatal("short site vector accepted")
	}

	bad = mk()
	bad.Nets[0].Site[0] = 0 // source is not a buffer position
	if err := bad.Validate(); err == nil {
		t.Fatal("site on non-buffer vertex accepted")
	}

	bad = mk()
	if len(bad.Nets[0].Site) > 2 && bad.Nets[0].Site[1] != NoSite {
		bad.Nets[0].Site[2] = bad.Nets[0].Site[1]
		if err := bad.Validate(); err == nil {
			t.Fatal("duplicate site within one net accepted")
		}
	}

	bad = mk()
	bad.Blockages = []Blockage{{5, 5, 9, 9}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-grid blockage accepted")
	}

	// W*H wraps negative here; the grid must fail validation, not size a
	// slice. With every vertex unsited the site-range check never runs.
	var verr *solvererr.ValidationError
	for _, g := range []Grid{{W: 3037000500, H: 3037000500}, {W: 200000, H: 200000}, {W: maxSites + 1, H: 1}} {
		bad = mk()
		bad.Grid = g
		for i := range bad.Nets {
			for v := range bad.Nets[i].Site {
				bad.Nets[i].Site[v] = NoSite
			}
		}
		if err := bad.Validate(); !errors.As(err, &verr) || verr.Field != "grid" {
			t.Fatalf("grid %dx%d: got %v, want a ValidationError on grid", g.W, g.H, err)
		}
	}
}
