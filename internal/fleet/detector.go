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

// Failure-detector thresholds.
const (
	// suspectPhi and deadPhi are the suspicion thresholds.
	suspectPhi = 2
	deadPhi    = 8
	// failuresToDead marks a peer dead after this many consecutive
	// reported failures regardless of timing.
	failuresToDead = 3
	// minInterval floors the expected heartbeat interval so one fast
	// probe burst cannot make the detector hair-triggered.
	minInterval = 100 * time.Millisecond
)

// Detector is a phi-accrual-style failure detector: rather than a binary
// timeout, it accrues a continuous suspicion level per peer from the
// history of successful-contact inter-arrival times (probe answers and
// forwarded-request successes both count). Suspicion is the time since
// the last success divided by the expected interval padded with its
// observed jitter:
//
//	phi = elapsed / (mean + 4*stddev)
//
// phi < suspectPhi is Alive, phi >= deadPhi is Dead, in between is
// Suspect. Reported request failures bias the verdict immediately: one
// failure demotes to at least Suspect, failuresToDead consecutive ones to
// Dead — a refused connection should not wait out a probe interval. Any
// success resurrects the peer instantly; there is no quarantine, because
// the caller re-probes on its own schedule.
//
// All methods are safe for concurrent use.
type Detector struct {
	now func() time.Time // the clock; tests inject a fake

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

// NewDetector builds a detector for the given peers, reading time from now
// (time.Now in production).
func NewDetector(peers []string, now func() time.Time) *Detector {
	d := &Detector{now: now, peers: make(map[string]*peerHealth, len(peers))}
	start := now()
	for _, p := range peers {
		// Start optimistic: a fresh peer is Alive with "last success now",
		// so a cold fleet routes normally and the first probe round settles
		// the truth.
		d.peers[p] = &peerHealth{lastOK: start}
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
	now := d.now()
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
	if h.fails >= failuresToDead {
		return Dead
	}
	phi := d.phiLocked(h)
	switch {
	case phi >= deadPhi:
		return Dead
	case phi >= suspectPhi || h.fails > 0:
		return Suspect
	}
	return Alive
}

// phiLocked computes the suspicion level for h.
func (d *Detector) phiLocked(h *peerHealth) float64 {
	elapsed := float64(d.now().Sub(h.lastOK))
	expected := h.mean + 4*math.Sqrt(h.vari)
	expected = math.Max(expected, float64(minInterval))
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
