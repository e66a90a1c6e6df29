package fleet

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func digests(i int) ([32]byte, [32]byte) {
	return sha256.Sum256([]byte(fmt.Sprintf("net-%d", i))), sha256.Sum256([]byte("lib"))
}

func TestRingDeterministicAcrossOrder(t *testing.T) {
	a := NewRing([]string{"http://a", "http://b", "http://c"})
	b := NewRing([]string{"http://c", "http://a", "http://b"})
	for i := 0; i < 200; i++ {
		n, l := digests(i)
		key := RouteKey(n, l)
		oa, ob := a.Owners(key, 2), b.Owners(key, 2)
		if len(oa) != 2 || len(ob) != 2 {
			t.Fatalf("key %d: owner counts %d, %d", i, len(oa), len(ob))
		}
		for j := range oa {
			if oa[j] != ob[j] {
				t.Fatalf("key %d: rings disagree: %v vs %v", i, oa, ob)
			}
		}
		if oa[0] == oa[1] {
			t.Fatalf("key %d: duplicate owner %q", i, oa[0])
		}
	}
}

func TestRingBalanceAndMinimalMovement(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c"}
	r3 := NewRing(members)
	count := map[string]int{}
	const keys = 3000
	home := make([]string, keys)
	for i := 0; i < keys; i++ {
		n, l := digests(i)
		o := r3.Owners(RouteKey(n, l), 1)[0]
		home[i] = o
		count[o]++
	}
	for m, c := range count {
		if c < keys/6 || c > keys/2+keys/10 {
			t.Errorf("member %s owns %d of %d keys — badly unbalanced", m, c, keys)
		}
	}
	// Adding a member must move only keys that land on the new member —
	// existing assignments either stay or go to http://d.
	r4 := NewRing(append(append([]string(nil), members...), "http://d"))
	moved := 0
	for i := 0; i < keys; i++ {
		n, l := digests(i)
		o := r4.Owners(RouteKey(n, l), 1)[0]
		if o != home[i] {
			if o != "http://d" {
				t.Fatalf("key %d moved %s -> %s, not to the new member", i, home[i], o)
			}
			moved++
		}
	}
	if moved == 0 || moved > keys/2 {
		t.Errorf("adding a member moved %d of %d keys; want ~%d", moved, keys, keys/4)
	}
}

func TestDetectorLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	d := NewDetector([]string{"p"}, clock)
	// Steady heartbeats at 1 s: alive.
	for i := 0; i < 10; i++ {
		now = now.Add(time.Second)
		d.ReportSuccess("p")
	}
	if got := d.State("p"); got != Alive {
		t.Fatalf("steady peer = %v, want alive", got)
	}
	// Silence accrues suspicion continuously: suspect first, dead later.
	now = now.Add(3 * time.Second)
	if got := d.State("p"); got != Suspect {
		t.Fatalf("after 3 s silence = %v (phi %.1f), want suspect", got, d.Phi("p"))
	}
	now = now.Add(20 * time.Second)
	if got := d.State("p"); got != Dead {
		t.Fatalf("after 23 s silence = %v (phi %.1f), want dead", got, d.Phi("p"))
	}
	// One success resurrects instantly.
	d.ReportSuccess("p")
	if got := d.State("p"); got != Alive {
		t.Fatalf("after success = %v, want alive", got)
	}
}

func TestDetectorConsecutiveFailures(t *testing.T) {
	now := time.Unix(1000, 0)
	d := NewDetector([]string{"p"}, func() time.Time { return now })
	d.ReportSuccess("p")
	d.ReportFailure("p")
	if got := d.State("p"); got != Suspect {
		t.Fatalf("one failure = %v, want suspect", got)
	}
	d.ReportFailure("p")
	d.ReportFailure("p")
	if got := d.State("p"); got != Dead {
		t.Fatalf("three failures = %v, want dead", got)
	}
	d.ReportSuccess("p")
	if got := d.State("p"); got != Alive {
		t.Fatalf("success after failures = %v, want alive", got)
	}
}

func TestFleetRouting(t *testing.T) {
	f, err := New(Config{
		Self:  "http://b",
		Peers: []string{"http://a", "http://b", "http://c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ownedBySelf := 0
	for i := 0; i < 300; i++ {
		n, l := digests(i)
		key := RouteKey(n, l)
		owners := f.Owners(key)
		if len(owners) != 2 {
			t.Fatalf("key %d: %d owners, want 2", i, len(owners))
		}
		if f.IsOwner(key) {
			ownedBySelf++
		}
	}
	// With R=2 of 3 members, self owns ~2/3 of keys.
	if ownedBySelf < 100 || ownedBySelf > 280 {
		t.Errorf("self owns %d of 300 keys; want ~200", ownedBySelf)
	}
	// Killing the home peer reroutes to the replica.
	n, l := digests(7)
	key := RouteKey(n, l)
	owners := f.Owners(key)
	other := owners[0]
	if other == "http://b" {
		other = owners[1]
	}
	for i := 0; i < 3; i++ {
		f.Detector().ReportFailure(other)
	}
	routed := f.Route(key)
	if routed[len(routed)-1] != other {
		t.Errorf("Route after killing %s = %v; dead peer should rank last", other, routed)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{Self: "http://a", Peers: []string{"http://a", "http://b"}}, true},
		{Config{Self: "", Peers: []string{"http://a"}}, false},
		{Config{Self: "http://a", Peers: []string{"http://b"}}, false},
		{Config{Self: "http://a", Peers: []string{"http://a", "http://a"}}, false},
	}
	for i, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%t", i, err, c.ok)
		}
	}
}

func TestHedgedFirstWins(t *testing.T) {
	launches := atomic.Int32{}
	v, target, hedged, err := Hedged(context.Background(), []string{"slow", "fast"}, 10*time.Millisecond,
		nil, func(int) { launches.Add(1) },
		func(ctx context.Context, t string) (string, error) {
			if t == "slow" {
				select {
				case <-time.After(2 * time.Second):
					return "slow-done", nil
				case <-ctx.Done():
					return "", ctx.Err()
				}
			}
			return "fast-done", nil
		})
	if err != nil || v != "fast-done" || target != "fast" || !hedged {
		t.Fatalf("Hedged = (%q, %q, %t, %v), want fast hedge win", v, target, hedged, err)
	}
	if launches.Load() != 2 {
		t.Fatalf("launches = %d, want 2", launches.Load())
	}
}

func TestHedgedFailoverImmediate(t *testing.T) {
	// The primary fails fast; the second target must launch without
	// waiting for the hedge delay and without a hedge token.
	start := time.Now()
	v, target, hedged, err := Hedged(context.Background(), []string{"bad", "good"}, time.Hour,
		func() bool { return false }, nil,
		func(ctx context.Context, t string) (string, error) {
			if t == "bad" {
				return "", errors.New("refused")
			}
			return "ok", nil
		})
	if err != nil || v != "ok" || target != "good" {
		t.Fatalf("Hedged = (%q, %q, %t, %v), want failover to good", v, target, hedged, err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("failover waited for the hedge delay")
	}
}

func TestHedgedAllFail(t *testing.T) {
	first := errors.New("first")
	_, _, _, err := Hedged(context.Background(), []string{"a", "b"}, time.Millisecond,
		nil, nil,
		func(ctx context.Context, t string) (int, error) {
			if t == "a" {
				return 0, first
			}
			return 0, errors.New("second")
		})
	if !errors.Is(err, first) {
		t.Fatalf("err = %v, want the first error", err)
	}
}

func TestHedgeBudget(t *testing.T) {
	f, err := New(Config{
		Self:  "http://a",
		Peers: []string{"http://a", "http://b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := 0
	for i := 0; i < 2*hedgeBurst; i++ {
		if f.AllowHedge() {
			got++
		}
	}
	if got != hedgeBurst {
		t.Fatalf("burst grants = %d, want %d", got, hedgeBurst)
	}
	// 1/hedgeRatio forwards earn one token; one more absorbs the rounding
	// of the repeated float sum.
	for i := 0; i < int(1/hedgeRatio)+1; i++ {
		f.EarnHedge()
	}
	if !f.AllowHedge() {
		t.Fatal("earned token not granted")
	}
	if f.AllowHedge() {
		t.Fatal("over-granted beyond earned tokens")
	}
}

func TestProbeLoopDrivesDetector(t *testing.T) {
	f, err := New(Config{
		Self:          "http://a",
		Peers:         []string{"http://a", "http://b"},
		ProbeInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	probes := atomic.Int32{}
	f.Start(func(ctx context.Context, peer string) error {
		probes.Add(1)
		return errors.New("down")
	}, nil)
	deadline := time.Now().Add(5 * time.Second)
	for f.Detector().State("http://b") != Dead {
		if time.Now().After(deadline) {
			t.Fatalf("peer never went dead after %d failing probes", probes.Load())
		}
		time.Sleep(time.Millisecond)
	}
	f.Close()
	n := probes.Load()
	time.Sleep(20 * time.Millisecond)
	if probes.Load() != n {
		t.Fatal("prober still running after Close")
	}
}
