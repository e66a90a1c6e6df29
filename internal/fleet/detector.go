package fleet

import (
	"math"
	"sync"
	"time"
)

// State is a peer's health as judged by the failure detector.
type State int

const (
	// Alive: recent successes, low suspicion — route normally.
	Alive State = iota
	// Suspect: suspicion crossed the soft threshold or a request just
	// failed. A suspect peer is still tried, but demoted behind alive
	// replicas and hedged aggressively.
	Suspect
	// Dead: suspicion crossed the hard threshold or failures are
	// consecutive. Dead peers are routed around entirely until a probe or
	// request succeeds again.
	Dead
)

// String names the state for /v1/fleet and logs.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return "unknown"
}

// DetectorConfig tunes the failure detector. Zero values take defaults.
type DetectorConfig struct {
	// SuspectPhi and DeadPhi are the suspicion thresholds (defaults 2, 8).
	SuspectPhi float64
	DeadPhi    float64
	// FailuresToDead marks a peer dead after this many consecutive
	// reported failures regardless of timing (default 3).
	FailuresToDead int
	// MinInterval floors the expected heartbeat interval so one fast
	// probe burst cannot make the detector hair-triggered (default 100ms).
	MinInterval time.Duration
	// Now is the clock (tests inject a fake; default time.Now).
	Now func() time.Time
}

func (c *DetectorConfig) fill() {
	if c.SuspectPhi <= 0 {
		c.SuspectPhi = 2
	}
	if c.DeadPhi <= c.SuspectPhi {
		c.DeadPhi = max(8, c.SuspectPhi*2)
	}
	if c.FailuresToDead <= 0 {
		c.FailuresToDead = 3
	}
	if c.MinInterval <= 0 {
		c.MinInterval = 100 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// Detector is a phi-accrual-style failure detector: rather than a binary
// timeout, it accrues a continuous suspicion level per peer from the
// history of successful-contact inter-arrival times (probe answers and
// forwarded-request successes both count). Suspicion is the time since
// the last success divided by the expected interval padded with its
// observed jitter:
//
//	phi = elapsed / (mean + 4*stddev)
//
// phi < SuspectPhi is Alive, phi >= DeadPhi is Dead, in between is
// Suspect. Reported request failures bias the verdict immediately: one
// failure demotes to at least Suspect, FailuresToDead consecutive ones to
// Dead — a refused connection should not wait out a probe interval. Any
// success resurrects the peer instantly; there is no quarantine, because
// the caller re-probes on its own schedule.
//
// All methods are safe for concurrent use.
type Detector struct {
	cfg DetectorConfig

	mu    sync.Mutex
	peers map[string]*peerHealth
}

type peerHealth struct {
	lastOK time.Time
	// mean/vari are exponential moments of the success inter-arrival time
	// (ns); seen counts successes.
	mean, vari float64
	seen       int
	fails      int // consecutive failures since the last success
}

// NewDetector builds a detector for the given peers.
func NewDetector(peers []string, cfg DetectorConfig) *Detector {
	cfg.fill()
	d := &Detector{cfg: cfg, peers: make(map[string]*peerHealth, len(peers))}
	now := cfg.Now()
	for _, p := range peers {
		// Start optimistic: a fresh peer is Alive with "last success now",
		// so a cold fleet routes normally and the first probe round settles
		// the truth.
		d.peers[p] = &peerHealth{lastOK: now}
	}
	return d
}

// ReportSuccess records a successful contact with peer (probe answer or
// forwarded request that completed).
func (d *Detector) ReportSuccess(peer string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.peers[peer]
	if !ok {
		return
	}
	now := d.cfg.Now()
	dt := float64(now.Sub(h.lastOK))
	if h.seen == 0 {
		h.mean = dt
	} else {
		const alpha = 0.2
		dev := dt - h.mean
		h.mean += alpha * dev
		h.vari = (1 - alpha) * (h.vari + alpha*dev*dev)
	}
	h.seen++
	h.lastOK = now
	h.fails = 0
}

// ReportFailure records a failed contact with peer.
func (d *Detector) ReportFailure(peer string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if h, ok := d.peers[peer]; ok {
		h.fails++
	}
}

// State returns the peer's current verdict. Unknown peers are Dead — the
// ring never produces them, so an unknown name is a caller bug routed
// around rather than crashed on.
func (d *Detector) State(peer string) State {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.peers[peer]
	if !ok {
		return Dead
	}
	return d.stateLocked(h)
}

func (d *Detector) stateLocked(h *peerHealth) State {
	if h.fails >= d.cfg.FailuresToDead {
		return Dead
	}
	phi := d.phiLocked(h)
	switch {
	case phi >= d.cfg.DeadPhi:
		return Dead
	case phi >= d.cfg.SuspectPhi || h.fails > 0:
		return Suspect
	}
	return Alive
}

// phiLocked computes the suspicion level for h.
func (d *Detector) phiLocked(h *peerHealth) float64 {
	elapsed := float64(d.cfg.Now().Sub(h.lastOK))
	expected := h.mean + 4*math.Sqrt(h.vari)
	expected = math.Max(expected, float64(d.cfg.MinInterval))
	return elapsed / expected
}

// Phi returns the peer's current suspicion level (for /v1/fleet).
func (d *Detector) Phi(peer string) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.peers[peer]
	if !ok {
		return math.Inf(1)
	}
	return d.phiLocked(h)
}

// Counts returns how many tracked peers are in each state.
func (d *Detector) Counts() (alive, suspect, dead int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, h := range d.peers {
		switch d.stateLocked(h) {
		case Alive:
			alive++
		case Suspect:
			suspect++
		default:
			dead++
		}
	}
	return
}
