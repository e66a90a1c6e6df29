package client

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/url"
	"sync/atomic"

	"bufferkit/internal/fleet"
)

// Fleet affinity: a client that knows the fleet's member list computes
// each solve's cache home with the same consistent hash the servers
// route by (internal/fleet — hashing only the net and library digests,
// never the options), and sends the request straight there. A well-aimed
// request skips the server-side forwarding hop entirely; a badly aimed
// one still works, because every node forwards. The list comes from
// WithPeers (static) or BootstrapPeers (asking any node for the
// topology), and only Solve uses it — batch and chip streams run where
// they land, and sessions are pinned to the node holding their state.

// peerRing is the client's view of the server ring — the same
// implementation, so placement agrees byte-for-byte.
type peerRing = fleet.Ring

// clientStats are the client's own counters (see Stats).
type clientStats struct {
	hedgesLaunched atomic.Int64
	hedgeWins      atomic.Int64
	hedgeLosses    atomic.Int64
	peerFailovers  atomic.Int64
}

// Stats is a snapshot of the client's self-instrumentation: the hedging
// win/loss record (is the P95 hint earning its extra load?) and how
// often solves failed over to another fleet member.
type Stats struct {
	// HedgesLaunched counts hedge requests actually sent; HedgeWins those
	// that answered first, HedgeLosses races the primary won anyway. Wins
	// say the hedge delay is well-chosen; all-losses say it only adds
	// load.
	HedgesLaunched int64
	HedgeWins      int64
	HedgeLosses    int64
	// PeerFailovers counts retry attempts that moved to a different fleet
	// member after a failure.
	PeerFailovers int64
}

// Stats returns the client's current counters.
func (c *Client) Stats() Stats {
	return Stats{
		HedgesLaunched: c.stats.hedgesLaunched.Load(),
		HedgeWins:      c.stats.hedgeWins.Load(),
		HedgeLosses:    c.stats.hedgeLosses.Load(),
		PeerFailovers:  c.stats.peerFailovers.Load(),
	}
}

// WithPeers gives the client a static fleet member list for
// digest-affinity solve routing. The base URL passed to New does not
// need to be in the list. Invalid URLs surface as an error from New.
func WithPeers(peerURLs ...string) Option {
	return func(c *Client) {
		if err := c.setPeers(peerURLs); err != nil && c.initErr == nil {
			c.initErr = err
		}
	}
}

// Fleet fetches the contacted node's fleet topology.
func (c *Client) Fleet(ctx context.Context) (*FleetInfo, error) {
	var info FleetInfo
	if err := c.doJSON(ctx, "GET", "/v1/fleet", nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// BootstrapPeers asks the base node for the fleet topology and adopts
// its member list for digest-affinity routing. On a single (non-fleet)
// node it is a no-op and the client keeps talking to its base URL.
// Call it again at any time to refresh.
func (c *Client) BootstrapPeers(ctx context.Context) (*FleetInfo, error) {
	info, err := c.Fleet(ctx)
	if err != nil {
		return nil, err
	}
	if !info.Enabled {
		return info, nil
	}
	urls := make([]string, len(info.Peers))
	for i, p := range info.Peers {
		urls[i] = p.URL
	}
	if err := c.setPeers(urls); err != nil {
		return nil, err
	}
	return info, nil
}

// setPeers installs a member list and its ring.
func (c *Client) setPeers(peerURLs []string) error {
	if len(peerURLs) == 0 {
		return fmt.Errorf("client: empty peer list")
	}
	byName := make(map[string]*url.URL, len(peerURLs))
	for _, p := range peerURLs {
		u, err := url.Parse(p)
		if err != nil {
			return fmt.Errorf("client: bad peer URL %q: %w", p, err)
		}
		if u.Scheme == "" || u.Host == "" {
			return fmt.Errorf("client: peer URL %q needs a scheme and host", p)
		}
		byName[p] = u
	}
	ring := fleet.NewRing(peerURLs)
	c.peerMu.Lock()
	c.peerURL, c.ring = byName, ring
	c.peerMu.Unlock()
	return nil
}

// solveTargets resolves the request's fleet targets: the digest's owners
// first (cache home, then replica), then the remaining members as a
// last-resort failover order. Nil without a peer list — the caller falls
// back to the base URL.
func (c *Client) solveTargets(req *SolveRequest) []*url.URL {
	c.peerMu.RLock()
	defer c.peerMu.RUnlock()
	if c.ring == nil {
		return nil
	}
	key := fleet.RouteKey(sha256.Sum256([]byte(req.Net)), sha256.Sum256([]byte(req.Library)))
	names := c.ring.Owners(key, len(c.peerURL))
	targets := make([]*url.URL, 0, len(names))
	for _, n := range names {
		if u, ok := c.peerURL[n]; ok {
			targets = append(targets, u)
		}
	}
	return targets
}
