package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"bufferkit/internal/api"
	"bufferkit/internal/fleet"
	"bufferkit/internal/obs"
	"bufferkit/internal/server/cache"
)

// The fleet tier for /v1/solve. Every node computes the same consistent-
// hash placement from the request's content digests, so a solve arriving
// anywhere routes to its cache home:
//
//   - A node that is NOT one of the digest's R owners forwards the request
//     to the healthiest owner with a tight sub-deadline and a hop-count
//     guard, hedging to the replica when the home peer is slow
//     (budget-capped, first response wins, loser canceled). Duplicate
//     concurrent forwards of one digest collapse onto one peer call.
//   - A node that IS an owner solves locally and writes the result
//     through to the other owners, so one node's death loses no cached
//     work (R=2 by default).
//   - When a replica served because the ring-preferred owner was slow or
//     freshly restarted, the forwarding node read-repairs the preferred
//     owner's cache in the background.
//   - Every degraded path ends in a local solve: a fully partitioned node
//     still answers each request from its own engines, just without cache
//     sharing.
//
// Only single solves route through the fleet. Batch, yield, chip and
// session requests are streaming or stateful — forwarding them would
// double engine time or split session state — so they always run on the
// node that received them.

// Forward headers. hopsHeader carries the hop count of a forwarded
// request (a node seeing a nonzero count never re-forwards — the guard
// against routing loops when nodes disagree about ring membership);
// originHeader names the forwarding node. Both are rewritten from
// scratch on every forward: client-supplied values never propagate, and
// the tenant header is deliberately NOT forwarded — the tenant quota was
// charged at the ingress node, and charging the hop again would bill one
// request twice.
const (
	hopsHeader   = "X-Bufferkit-Hops"
	originHeader = "X-Bufferkit-Origin"
	tenantHeader = "X-Bufferkit-Tenant"
)

// hopCount reads the forwarded-hop count (0 = a direct client request).
func hopCount(r *http.Request) int {
	n, _ := strconv.Atoi(r.Header.Get(hopsHeader))
	return max(n, 0)
}

// forwardError is a transport-level or capacity failure talking to a
// peer: connection refused, partition drop, peer 429/502/503, or the
// peer's own 504 sub-deadline verdict. Eligible for failover to the
// replica and, ultimately, a local-solve fallback. Unwrap keeps the
// context sentinels visible for the 504 mapping.
type forwardError struct {
	peer string
	err  error
}

func (e *forwardError) Error() string { return fmt.Sprintf("peer %s: %v", e.peer, e.err) }
func (e *forwardError) Unwrap() error { return e.err }

// relayedError is an authoritative non-2xx verdict from a peer (400, 409,
// 413, 422, 500...): the request itself is at fault, so the reply is
// relayed to the client verbatim with the origin peer surfaced in the
// error payload.
type relayedError struct {
	peer       string
	status     int
	body       api.ErrorBody
	retryAfter string
}

func (e *relayedError) Error() string {
	return fmt.Sprintf("peer %s: %d %s", e.peer, e.status, e.body.Error)
}

// forwardOutcome is one peer call's result: a solve response, or an
// authoritative error to relay (which must stop hedged failover — the
// replica would only repeat the verdict).
type forwardOutcome struct {
	resp  *api.SolveResult
	relay *relayedError
}

// handleSolveForward routes a /v1/solve this node does not own to the
// digest's owners. It reports true when it wrote the response; false
// means the caller should solve locally (this node is an owner, the
// request already hopped once, or every peer path failed and the local
// fallback still has budget).
func (s *Server) handleSolveForward(w http.ResponseWriter, r *http.Request, req *solveRequest, key cache.Key) bool {
	if s.fleet == nil || hopCount(r) > 0 {
		return false
	}
	h := fleet.RouteKey(key.Net, key.Library)
	if s.fleet.IsOwner(h) {
		return false
	}
	targets := s.fleet.Route(h)
	// All owners dead: skip the doomed round-trips and serve locally —
	// the fully-partitioned node still answers, just without cache
	// sharing.
	if len(targets) == 0 || s.fleet.Detector().State(targets[0]) == fleet.Dead {
		s.fleetFallbacks.Add(1)
		return false
	}
	tr := obs.TraceFromContext(r.Context())
	tr.Set("forwarded", true)
	fwd := tr.StartSpan("peer_forward")
	defer fwd.End()
	// The flight's context carries the creator's trace, so the hedge arms
	// span under it and the outgoing calls carry its traceparent.
	resp, _, err := coalesce(r.Context(), &s.forwardFlights, key, s.timeout(req.SolveOptions), s.fleetForwardShared,
		func(ctx context.Context) (*api.SolveResult, error) {
			return s.forwardSolve(ctx, req, key, h, targets)
		})
	if err != nil {
		var relay *relayedError
		if errors.As(err, &relay) {
			s.writeRelayed(w, relay)
			return true
		}
		s.fleetForwardErrors.Add(1)
		if r.Context().Err() == nil {
			// Peers failed but this request still has budget: solve it
			// here. Forwarding is an optimization, never a dependency.
			s.fleetFallbacks.Add(1)
			return false
		}
		s.writeError(w, s.asCanceled(annotatePeerErr(err)))
		return true
	}
	s.fleetForwards.Add(1)
	writeJSON(w, http.StatusOK, resp)
	return true
}

// forwardSolve races the request across the digest's owners: the
// healthiest owner first, the replica hedged in after HedgeAfter (budget
// permitting) or immediately on failure. On success the result is
// near-cached locally and the ring-preferred owner read-repaired when a
// replica served.
func (s *Server) forwardSolve(ctx context.Context, req *solveRequest, key cache.Key, h uint64, targets []string) (*api.SolveResult, error) {
	fcfg := s.fleet.Config()
	tr := obs.TraceFromContext(ctx)
	// Each arm's span opens at launch, on Hedged's own goroutine, so an arm
	// whose goroutine has not yet run when the race is decided is still in
	// the trace the handler finishes.
	arms := make([]obs.SpanRef, len(targets))
	out, winner, hedged, err := fleet.Hedged(ctx, targets, fcfg.HedgeAfter,
		s.fleet.AllowHedge,
		func(i int) {
			name := "peer_call"
			if i > 0 {
				s.fleetHedges.Add(1)
				tr.Set("hedged", true)
				name = "hedge_attempt"
			}
			arms[i] = tr.StartSpan(name)
			arms[i].Set("peer", targets[i])
		},
		func(ctx context.Context, peer string) (forwardOutcome, error) {
			defer arms[slices.Index(targets, peer)].End()
			return s.callPeerSolve(ctx, peer, req, tr.Traceparent())
		})
	if err != nil {
		return nil, err
	}
	if hedged {
		s.fleetHedgeWins.Add(1)
	}
	if out.relay != nil {
		return nil, out.relay
	}
	s.fleet.EarnHedge()
	// Near-cache: repeats of this digest at this node now hit locally,
	// which also keeps the fleet-wide singleflight invariant — the next
	// identical burst never leaves this node. Flags are normalized so a
	// later local hit reports its own cache story, not the peer's.
	norm := *out.resp
	norm.Cached, norm.Coalesced = false, false
	s.cache.PutIfAbsent(key, &norm)
	// Read-repair: the ring-preferred owner missed its chance to serve
	// (slow, just restarted, or briefly dead); push the result so its
	// cache converges without waiting for the next write.
	owners := s.fleet.Owners(h)
	if winner != owners[0] && s.fleet.Detector().State(owners[0]) != fleet.Dead {
		s.sendReplica(owners[0], key, &norm, s.fleetReadRepairs, tr.Traceparent())
	}
	return out.resp, nil
}

// callPeerSolve sends one forwarded solve to peer under a tight
// sub-deadline: most of the remaining budget, capped at ForwardTimeout,
// and carried in the payload's timeout_ms so the peer's admission
// controller sees the same number the wire enforces.
func (s *Server) callPeerSolve(ctx context.Context, peer string, req *solveRequest, traceparent string) (forwardOutcome, error) {
	sub := s.fleet.Config().ForwardTimeout
	if dl, ok := ctx.Deadline(); ok {
		// Keep 1/8 of the remaining budget in reserve so a peer that burns
		// its whole sub-deadline leaves room to answer the client (or fall
		// back locally to a cached result).
		if remaining := time.Until(dl); remaining-remaining/8 < sub {
			sub = remaining - remaining/8
		}
	}
	if sub <= 0 {
		return forwardOutcome{}, &forwardError{peer: peer, err: context.DeadlineExceeded}
	}
	fwd := *req
	fwd.TimeoutMs = int(sub / time.Millisecond)
	body, err := json.Marshal(&fwd)
	if err != nil {
		return forwardOutcome{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, sub)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return forwardOutcome{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(hopsHeader, "1")
	hreq.Header.Set(originHeader, s.fleet.Self())
	if traceparent != "" {
		hreq.Header.Set(traceparentHeader, traceparent)
	}
	hresp, err := s.fleetHTTP.Do(hreq)
	if err != nil {
		s.fleet.Detector().ReportFailure(peer)
		return forwardOutcome{}, &forwardError{peer: peer, err: err}
	}
	defer hresp.Body.Close()
	// Any HTTP reply means the peer process is alive, whatever the status.
	s.fleet.Detector().ReportSuccess(peer)
	if hresp.StatusCode == http.StatusOK {
		var resp api.SolveResult
		if err := readReply(hresp.Body, &resp); err != nil {
			return forwardOutcome{}, &forwardError{peer: peer, err: err}
		}
		return forwardOutcome{resp: &resp}, nil
	}
	var eb api.ErrorBody
	_ = readReply(io.LimitReader(hresp.Body, 1<<20), &eb)
	if eb.Error == "" {
		eb.Error = hresp.Status
	}
	switch hresp.StatusCode {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		// Capacity or deadline trouble at the peer: eligible for failover
		// to the replica and local fallback.
		return forwardOutcome{}, &forwardError{peer: peer,
			err: fmt.Errorf("%d from peer: %s", hresp.StatusCode, eb.Error)}
	}
	// Authoritative verdict (400/409/413/422/500...): relay as-is; the
	// replica would only repeat it.
	return forwardOutcome{relay: &relayedError{
		peer:       peer,
		status:     hresp.StatusCode,
		body:       eb,
		retryAfter: hresp.Header.Get("Retry-After"),
	}}, nil
}

// readReply reads a peer's reply body whole and decodes it into dst with
// the request reader.
func readReply(body io.Reader, dst any) error {
	buf, err := io.ReadAll(body)
	if err != nil {
		return err
	}
	return decodeJSON(buf, dst)
}

// writeRelayed writes a peer's authoritative error to the client with
// the origin peer surfaced in the payload, so a relayed 504 is
// distinguishable from this node's own deadline verdict.
func (s *Server) writeRelayed(w http.ResponseWriter, relay *relayedError) {
	s.httpErrors.Add(1)
	body := relay.body
	body.Peer = relay.peer
	// The relaying node's own trace id, not the peer's: the client talked
	// to this node, and this trace contains the forward + relay spans.
	body.Trace = requestTrace(w).TraceID()
	if relay.retryAfter != "" {
		w.Header().Set("Retry-After", relay.retryAfter)
	}
	writeJSON(w, relay.status, &body)
}

// annotatePeerErr folds the failing peer's identity into the error text
// for the degraded paths that end in writeError rather than writeRelayed.
func annotatePeerErr(err error) error {
	var fe *forwardError
	if errors.As(err, &fe) {
		return fmt.Errorf("forward to peer %s failed: %w", fe.peer, fe.err)
	}
	return err
}

// replicate writes a freshly solved result through to the digest's other
// owners (skipping dead ones), so one node's death loses no cached work.
// No-op when this node is not an owner: a local-fallback solve on a
// partitioned non-owner has no replica responsibility — and no reachable
// peers anyway.
func (s *Server) replicate(key cache.Key, resp *api.SolveResult, traceparent string) {
	if s.fleet == nil {
		return
	}
	h := fleet.RouteKey(key.Net, key.Library)
	if !s.fleet.IsOwner(h) {
		return
	}
	self := s.fleet.Self()
	for _, o := range s.fleet.Owners(h) {
		if o != self && s.fleet.Detector().State(o) != fleet.Dead {
			s.sendReplica(o, key, resp, s.fleetWriteThroughs, traceparent)
		}
	}
}

// cacheReplica is the PUT /internal/v1/cache payload: the cache key's
// raw digests (hex) plus the immutable response to store.
type cacheReplica struct {
	NetSHA   string           `json:"net_sha"`
	LibSHA   string           `json:"lib_sha"`
	Options  string           `json:"options"`
	Response *api.SolveResult `json:"response"`
}

// sendReplica pushes one cached result to peer in the background,
// incrementing okCounter on success (write-through or read-repair). The
// goroutine is fleet-tracked, so Server.Close waits it out. The
// originating request's traceparent rides along so the receiver's
// replica_write span joins the same trace.
func (s *Server) sendReplica(peer string, key cache.Key, resp *api.SolveResult, okCounter *expvar.Int, traceparent string) {
	payload := &cacheReplica{
		NetSHA:   hex.EncodeToString(key.Net[:]),
		LibSHA:   hex.EncodeToString(key.Library[:]),
		Options:  key.Options,
		Response: resp,
	}
	s.fleet.Go(func() {
		body, err := json.Marshal(payload)
		if err != nil {
			s.fleetWriteThroughErrs.Add(1)
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, peer+"/internal/v1/cache", bytes.NewReader(body))
		if err != nil {
			s.fleetWriteThroughErrs.Add(1)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(originHeader, s.fleet.Self())
		if traceparent != "" {
			req.Header.Set(traceparentHeader, traceparent)
		}
		hresp, err := s.fleetHTTP.Do(req)
		if err != nil {
			s.fleet.Detector().ReportFailure(peer)
			s.fleetWriteThroughErrs.Add(1)
			return
		}
		io.Copy(io.Discard, hresp.Body)
		hresp.Body.Close()
		s.fleet.Detector().ReportSuccess(peer)
		if hresp.StatusCode == http.StatusOK {
			okCounter.Add(1)
		} else {
			s.fleetWriteThroughErrs.Add(1)
		}
	})
}

// handleCacheReplica accepts a peer's write-through or read-repair push.
// The entry is stored only when absent — results are deterministic, and
// replication must not disturb locally established LRU order.
func (s *Server) handleCacheReplica(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		s.writeError(w, &httpError{status: http.StatusNotFound, msg: "not a fleet member"})
		return
	}
	var req cacheReplica
	if err := s.decodeRequest(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	netSHA, err1 := hex.DecodeString(req.NetSHA)
	libSHA, err2 := hex.DecodeString(req.LibSHA)
	if err1 != nil || err2 != nil || len(netSHA) != 32 || len(libSHA) != 32 || req.Response == nil {
		s.writeError(w, badRequestf("", "malformed cache replica"))
		return
	}
	var key cache.Key
	copy(key.Net[:], netSHA)
	copy(key.Library[:], libSHA)
	key.Options = req.Options
	resp := *req.Response
	resp.Cached, resp.Coalesced = false, false
	tr := obs.TraceFromContext(r.Context())
	tr.Set("digest", digestAttr(key.Net))
	sp := tr.StartSpan("replica_write")
	stored := s.cache.PutIfAbsent(key, &resp)
	sp.Set("stored", stored)
	sp.End()
	if stored {
		s.fleetReplicasStored.Add(1)
	}
	writeJSON(w, http.StatusOK, map[string]bool{"stored": stored})
}

// handleFleet reports the fleet topology and per-peer health — the
// client's peer-list bootstrap and an operator's split-brain view.
func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	if s.fleet == nil {
		writeJSON(w, http.StatusOK, &api.FleetInfo{})
		return
	}
	writeJSON(w, http.StatusOK, &api.FleetInfo{
		Enabled:  true,
		Self:     s.fleet.Self(),
		Replicas: s.fleet.Config().Replicas,
		Peers:    s.fleet.Snapshot(),
	})
}

// probePeer is the failure detector's heartbeat: GET /readyz under the
// probe-interval deadline. A draining peer answers 503 and is treated as
// failing — exactly right, new traffic should route around it.
func (s *Server) probePeer(ctx context.Context, peer string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := s.fleetHTTP.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: %s", resp.Status)
	}
	return nil
}

// tenantLimit is the per-tenant quota middleware: mutating /v1 requests
// are charged to the X-Bufferkit-Tenant bucket before admission, so one
// tenant's overload sheds only that tenant while probes, metrics and
// forwarded hops (already charged at their ingress node) pass free.
func (s *Server) tenantLimit(next http.Handler) http.Handler {
	if s.quotas == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet || !strings.HasPrefix(r.URL.Path, "/v1/") || hopCount(r) > 0 {
			next.ServeHTTP(w, r)
			return
		}
		tr := obs.TraceFromContext(r.Context())
		tenant := r.Header.Get(tenantHeader)
		sp := tr.StartSpan("tenant_quota")
		ok, retry := s.quotas.Allow(tenant)
		sp.Set("allowed", ok)
		sp.End()
		if !ok {
			s.httpErrors.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
			writeJSON(w, http.StatusTooManyRequests, &api.ErrorBody{
				Error: fmt.Sprintf("tenant %q over quota (retry after %s)", tenant, retry.Round(time.Millisecond)),
				Trace: tr.TraceID(),
			})
			return
		}
		next.ServeHTTP(w, r)
	})
}
