package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"bufferkit/internal/resilience"
)

// The hedge budget is the same resilience.TokenBudget as the client's retry
// budget: each forward earns hedgeRatio hedge tokens (capped at hedgeBurst)
// and each hedge spends one, so a uniformly slow fleet degrades to plain
// forwarding instead of doubling its own load.
const (
	hedgeRatio = 0.1
	hedgeBurst = 10
)

// Config parameterizes a Fleet. Self and Peers are required; everything
// else has production defaults.
type Config struct {
	// Self is this node's advertised base URL. It must appear in Peers.
	Self string
	// Peers is the full static member list, Self included. Every node of
	// the fleet must be started with the same set (order is irrelevant).
	Peers []string
	// Replicas is the replication factor R: each digest's cached result
	// lives on this many ring-consecutive members (0 = 2). Clamped to the
	// fleet size.
	Replicas int
	// ProbeInterval is the /readyz probe period feeding the failure
	// detector (0 = 1 s).
	ProbeInterval time.Duration
	// HedgeAfter is how long a forwarded request waits on the home peer
	// before racing the replica (0 = 30 ms).
	HedgeAfter time.Duration
	// ForwardTimeout caps the sub-deadline given to one forwarded attempt
	// (0 = 5 s). The actual sub-deadline is the smaller of this and most
	// of the request's remaining budget.
	ForwardTimeout time.Duration
	// Transport is the HTTP transport for probes and forwards (nil =
	// http.DefaultTransport). Chaos tests inject partitions here.
	Transport http.RoundTripper
}

// Enabled reports whether cfg describes a real fleet: a self URL plus at
// least one other member.
func (c *Config) Enabled() bool { return c.Self != "" && len(c.Peers) > 1 }

func (c *Config) fill() {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	c.Replicas = min(c.Replicas, len(c.Peers))
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 30 * time.Millisecond
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 5 * time.Second
	}
}

// Validate checks a fleet configuration before any node state is built.
func (c *Config) Validate() error {
	if c.Self == "" {
		return errors.New("fleet: Self URL is required")
	}
	seen := make(map[string]bool, len(c.Peers))
	for _, p := range c.Peers {
		if p == "" {
			return errors.New("fleet: empty peer URL")
		}
		if seen[p] {
			return fmt.Errorf("fleet: duplicate peer %q", p)
		}
		seen[p] = true
	}
	if !seen[c.Self] {
		return fmt.Errorf("fleet: self %q is not in the peer list", c.Self)
	}
	return nil
}

// Fleet is one node's view of the peer tier: the ring, the failure
// detector, the probe loop, and the hedge budget. Create with New, start
// the prober with Start, and Close before discarding.
type Fleet struct {
	cfg  Config
	ring *Ring
	det  *Detector

	hedge *resilience.TokenBudget

	stop   chan struct{}
	wg     sync.WaitGroup
	closed sync.Once
}

// New builds a Fleet. cfg must Validate.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	var others []string
	for _, p := range cfg.Peers {
		if p != cfg.Self {
			others = append(others, p)
		}
	}
	return &Fleet{
		cfg:   cfg,
		ring:  NewRing(cfg.Peers),
		det:   NewDetector(others, time.Now),
		hedge: resilience.NewTokenBudget(hedgeRatio, hedgeBurst),
		stop:  make(chan struct{}),
	}, nil
}

// Config returns the filled configuration.
func (f *Fleet) Config() Config { return f.cfg }

// Self returns this node's advertised URL.
func (f *Fleet) Self() string { return f.cfg.Self }

// Members returns the full member list (sorted).
func (f *Fleet) Members() []string { return f.ring.Members() }

// Detector exposes the failure detector for outcome reporting.
func (f *Fleet) Detector() *Detector { return f.det }

// Owners returns key's replica set in ring order (health-blind).
func (f *Fleet) Owners(key uint64) []string { return f.ring.Owners(key, f.cfg.Replicas) }

// IsOwner reports whether this node is in key's replica set.
func (f *Fleet) IsOwner(key uint64) bool {
	for _, o := range f.Owners(key) {
		if o == f.cfg.Self {
			return true
		}
	}
	return false
}

// Route returns key's replica set reordered by health — alive owners in
// ring order, then suspect, then dead. Self always counts as alive: a
// node that is executing this call is, by construction, serving. The
// caller forwards to the first and hedges to the second.
func (f *Fleet) Route(key uint64) []string {
	owners := f.Owners(key)
	out := make([]string, 0, len(owners))
	for want := Alive; want <= Dead; want++ {
		for _, p := range owners {
			st := Alive
			if p != f.cfg.Self {
				st = f.det.State(p)
			}
			if st == want {
				out = append(out, p)
			}
		}
	}
	return out
}

// AllowHedge spends one hedge token; false means the budget is dry and
// the caller should wait out the primary instead of racing it.
func (f *Fleet) AllowHedge() bool { return f.hedge.Spend() }

// EarnHedge credits the hedge budget for one completed forward.
func (f *Fleet) EarnHedge() { f.hedge.Earn() }

// Start launches the probe loop: every ProbeInterval, probe is invoked
// for each other member and its verdict feeds the failure detector. The
// onProbe callback (nil ok) observes each outcome for metrics.
func (f *Fleet) Start(probe func(ctx context.Context, peer string) error, onProbe func(peer string, err error)) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		t := time.NewTicker(f.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-t.C:
			}
			for _, p := range f.Members() {
				if p == f.cfg.Self {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), f.cfg.ProbeInterval)
				err := probe(ctx, p)
				cancel()
				if err != nil {
					f.det.ReportFailure(p)
				} else {
					f.det.ReportSuccess(p)
				}
				if onProbe != nil {
					onProbe(p, err)
				}
				select {
				case <-f.stop:
					return
				default:
				}
			}
		}
	}()
}

// Go runs fn on a fleet-tracked goroutine (write-through, read-repair);
// Close waits for all of them, so tests get a clean goroutine baseline.
func (f *Fleet) Go(fn func()) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		fn()
	}()
}

// Close stops the prober and waits for tracked goroutines to finish.
func (f *Fleet) Close() {
	f.closed.Do(func() { close(f.stop) })
	f.wg.Wait()
}

// PeerStatus is one member's health snapshot for GET /v1/fleet.
type PeerStatus struct {
	URL   string  `json:"url"`
	Self  bool    `json:"self,omitempty"`
	State string  `json:"state"`
	Phi   float64 `json:"phi"`
}

// Snapshot reports every member's current verdict. Self is always alive —
// a node that can run the handler is, by construction, serving.
func (f *Fleet) Snapshot() []PeerStatus {
	out := make([]PeerStatus, 0, len(f.Members()))
	for _, p := range f.Members() {
		if p == f.cfg.Self {
			out = append(out, PeerStatus{URL: p, Self: true, State: Alive.String()})
			continue
		}
		out = append(out, PeerStatus{URL: p, State: f.det.State(p).String(), Phi: f.det.Phi(p)})
	}
	return out
}

// Hedged races call across targets, first response wins. The first
// target launches immediately; each later one launches when the previous
// attempt fails, or after `after` elapses with the in-flight attempts
// still silent and allowHedge grants a token (nil allowHedge = always).
// Losers are canceled on return. onLaunch (nil ok) observes each launch
// index, so callers can count hedges. Returns the winning value, the
// winning target, and whether the winner was a hedge (launch index > 0);
// when every target fails, the first error is returned.
func Hedged[T any](ctx context.Context, targets []string, after time.Duration,
	allowHedge func() bool, onLaunch func(i int),
	call func(ctx context.Context, target string) (T, error)) (T, string, bool, error) {

	var zero T
	if len(targets) == 0 {
		return zero, "", false, errors.New("fleet: no targets")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // stops the losers
	type outcome struct {
		val    T
		target string
		idx    int
		err    error
	}
	results := make(chan outcome, len(targets))
	launched, inFlight := 0, 0
	launch := func() {
		i := launched
		t := targets[i]
		launched++
		inFlight++
		if onLaunch != nil {
			onLaunch(i)
		}
		go func() {
			v, err := call(ctx, t)
			results <- outcome{val: v, target: t, idx: i, err: err}
		}()
	}
	launch()
	timer := time.NewTimer(after)
	defer timer.Stop()
	var firstErr error
	for {
		select {
		case <-timer.C:
			if launched < len(targets) && (allowHedge == nil || allowHedge()) {
				launch()
			}
			timer.Reset(after) // next hedge (or a retried budget grab) waits again
		case o := <-results:
			inFlight--
			if o.err == nil {
				return o.val, o.target, o.idx > 0, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			// A failed attempt frees its slot: fail over to the next target
			// immediately (no hedge token needed — this is failover, not a
			// race).
			if launched < len(targets) {
				launch()
			} else if inFlight == 0 {
				return zero, "", false, firstErr
			}
		case <-ctx.Done():
			return zero, "", false, ctx.Err()
		}
	}
}
