package server

import (
	"context"
	"crypto/sha256"
	"hash"
	"net/http"
	"sync"
	"time"

	"bufferkit"
	"bufferkit/internal/api"
	"bufferkit/internal/netlist"
	"bufferkit/internal/obs"
	"bufferkit/internal/server/cache"
)

// The ECO-session surface: PUT /v1/sessions/{id} applies typed patches to a
// server-retained incremental session and re-solves only the dirty
// vertex-to-root paths, so a synthesis loop iterating on one net pays for
// its deltas instead of whole re-solves. The session table is LRU + TTL
// evicted; a client whose session expired gets a 404 and recreates it by
// resending net and library under the same id (the client package does this
// transparently). Results are cache-coherent with /v1/solve: the session
// keeps its net's canonical .net text as one rendered line per vertex
// (netlist.Lines), re-renders only the lines of the vertices a patch
// touches, and keys the same LRU by sha256 over exactly the bytes
// WriteNet writes for the patched tree. So a session resolve can be
// answered by an earlier plain solve of the identical net, and vice versa,
// while a patch pays for hashing the text but not for rendering it.

// sessionEntry is one retained session. mu serializes use of the session
// (sessions are single-threaded by contract); lastUsed is guarded by the
// server's sessMu, not mu, so eviction scans never block on a resolve.
type sessionEntry struct {
	id      string
	netText string // original .net payload, for idempotent-create matching
	libText string
	lib     bufferkit.Library
	libSum  [sha256.Size]byte // sha256 of libText, the library half of every key
	name    string            // net name, for response building
	names   map[string]int    // vertex name → index, for patch addressing
	tree    *bufferkit.Tree   // the session's patched tree (read-only view)
	opts    api.SolveOptions  // pinned at create; later requests must not conflict
	optsKey string            // cacheOptions(opts), pinned at create

	mu     sync.Mutex
	solver *bufferkit.Solver
	sess   *bufferkit.Session
	last   bufferkit.SessionStats // stats at last observation, for counter deltas
	closed bool
	// lines is the patched tree's canonical .net text, one line per
	// vertex, kept current by the PUT handler; netHash digests it.
	lines   *netlist.Lines
	netHash hash.Hash

	lastUsed time.Time // guarded by Server.sessMu
}

// handleSessionPut creates/patches/re-solves one session.
func (s *Server) handleSessionPut(w http.ResponseWriter, r *http.Request) {
	s.sessionReqs.Add(1)
	tr := obs.TraceFromContext(r.Context())
	if s.cfg.MaxSessions < 0 {
		s.writeError(w, &httpError{status: http.StatusNotFound, msg: "sessions are disabled on this server"})
		return
	}
	id := r.PathValue("id")
	if id == "" || len(id) > 128 {
		s.writeError(w, badRequestf("id", "session id must be 1–128 characters"))
		return
	}
	var req sessionRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	e, created, err := s.getOrCreateSession(id, &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	e.mu.Lock()
	for e.closed {
		// Evicted or deleted between table lookup and lock. The entry is
		// already out of the table, so a request carrying net and library
		// looks the id up again, which recreates the session; a patch-only
		// request cannot, and the client's retry must.
		e.mu.Unlock()
		if req.Net == "" || req.Library == "" {
			s.writeError(w, &httpError{status: http.StatusNotFound, field: "id",
				msg: "session " + id + " was evicted; retry with net and library to recreate it"})
			return
		}
		if e, created, err = s.getOrCreateSession(id, &req); err != nil {
			s.writeError(w, err)
			return
		}
		e.mu.Lock()
	}
	defer e.mu.Unlock()

	if len(req.Patches) > 0 {
		deltas, err := e.buildDeltas(req.Patches)
		if err != nil {
			s.writeError(w, err)
			return
		}
		if e.sess.Patch(deltas...).Err() != nil {
			// Resolve returns — and clears — the sticky patch error without
			// an engine run; the rejected batch never touched the session.
			_, err := e.sess.Resolve(r.Context())
			s.writeError(w, err)
			return
		}
		// A patch changes only its own vertex's line: values, never names
		// or shape.
		for _, p := range req.Patches {
			e.lines.Render(e.names[p.Vertex])
		}
		s.sessionPatches.Add(int64(len(req.Patches)))
	}

	// Cache coherence: the key is the one /v1/solve computes for the
	// patched net's canonical text, so identical patched nets share results
	// across both endpoints, in both directions.
	lookup := tr.StartSpan("cache_lookup")
	key := e.cacheKey()
	tr.Set("digest", digestAttr(key.Net))
	hit, ok := cacheGet[api.SolveResult](s, key)
	lookup.Set("hit", ok)
	lookup.End()
	if ok {
		s.sessionCacheHits.Add(1)
		tr.Set("cached", true)
		enc := tr.StartSpan("encode")
		hit.Cached = true
		writeJSON(w, http.StatusOK, &api.SessionResult{SolveResult: *hit, Session: e.info(s, id, created)})
		enc.End()
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(e.opts))
	defer cancel()
	slots, err := s.admit(ctx, 1)
	if err != nil {
		s.writeError(w, s.asCanceled(err))
		return
	}
	defer s.release(slots)
	s.sessionResolves.Add(1)
	run := startRun(ctx)
	res, err := e.sess.Resolve(ctx)
	elapsed := s.endRun(run, 1, res, true)
	info := e.info(s, id, created)
	if err != nil {
		s.writeError(w, s.asCanceled(err))
		return
	}
	resp := buildReply(e.name, e.tree, e.lib, e.solver.Algorithm(), res, elapsed, false)
	s.cacheStore(key, resp)
	enc := tr.StartSpan("encode")
	writeJSON(w, http.StatusOK, &api.SessionResult{SolveResult: *resp, Session: info})
	enc.End()
}

// cacheKey is payloadKey(WriteNet(patched net), digest(libText), optsKey),
// computed from the kept lines: one sha256 pass over the same bytes, no
// rendering (and no error: a hash.Hash write never fails). Callers hold
// e.mu.
func (e *sessionEntry) cacheKey() cache.Key {
	e.netHash.Reset()
	e.lines.WriteTo(e.netHash)
	key := cache.Key{Library: e.libSum, Options: e.optsKey}
	e.netHash.Sum(key.Net[:0])
	return key
}

// handleSessionDelete closes and forgets a session.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	s.sessionReqs.Add(1)
	id := r.PathValue("id")
	s.sessMu.Lock()
	e, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.sessMu.Unlock()
	if !ok {
		s.writeError(w, &httpError{status: http.StatusNotFound, field: "id", msg: "unknown session " + id})
		return
	}
	e.close()
	writeJSON(w, http.StatusOK, map[string]any{"closed": true, "id": id})
}

// getOrCreateSession returns the table entry for id, creating it (and
// evicting expired or least-recently-used sessions) when the request
// carries net and library.
func (s *Server) getOrCreateSession(id string, req *sessionRequest) (*sessionEntry, bool, error) {
	now := time.Now()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	s.evictExpiredLocked(now)
	if e, ok := s.sessions[id]; ok {
		if req.Net != "" && req.Net != e.netText {
			return nil, false, &httpError{status: http.StatusConflict, field: "net",
				msg: "session " + id + " exists with a different net; DELETE it or use a new id"}
		}
		if req.Library != "" && req.Library != e.libText {
			return nil, false, &httpError{status: http.StatusConflict, field: "library",
				msg: "session " + id + " exists with a different library; DELETE it or use a new id"}
		}
		if opts := cacheOptions(req.SolveOptions); opts != e.optsKey {
			return nil, false, &httpError{status: http.StatusConflict, field: "algorithm",
				msg: "session " + id + " exists with different solve options; DELETE it or use a new id"}
		}
		e.lastUsed = now
		return e, false, nil
	}
	if req.Net == "" || req.Library == "" {
		return nil, false, &httpError{status: http.StatusNotFound, field: "id",
			msg: "unknown or expired session " + id + "; include net and library to create it"}
	}
	net, lib, err := parsePayload(req.Net, req.Library)
	if err != nil {
		return nil, false, err
	}
	solver, err := newSolver(req.SolveOptions, lib, bufferkit.WithDriver(net.Driver))
	if err != nil {
		return nil, false, err
	}
	sess, err := solver.NewSession(net.Tree)
	if err != nil {
		solver.Close()
		return nil, false, err
	}
	names := make(map[string]int, net.Tree.Len())
	for v := range net.Tree.Verts {
		names[vertexName(net.Tree, v)] = v
	}
	tree := sess.Tree()
	e := &sessionEntry{
		id:      id,
		netText: req.Net,
		libText: req.Library,
		libSum:  digest(req.Library),
		lib:     lib,
		name:    net.Name,
		names:   names,
		tree:    tree,
		opts:    req.SolveOptions,
		optsKey: cacheOptions(req.SolveOptions),
		solver:  solver,
		sess:    sess,
		lines:   netlist.NewLines(&netlist.Net{Name: net.Name, Tree: tree, Driver: net.Driver}),
		netHash: sha256.New(),
	}
	for len(s.sessions) >= s.cfg.MaxSessions {
		s.evictOldestLocked()
	}
	s.sessions[id] = e
	e.lastUsed = now
	s.sessionsCreated.Add(1)
	return e, true, nil
}

// evictExpiredLocked drops every session idle past the TTL. Callers hold
// sessMu.
func (s *Server) evictExpiredLocked(now time.Time) {
	for id, e := range s.sessions {
		if now.Sub(e.lastUsed) > s.cfg.SessionTTL {
			delete(s.sessions, id)
			s.sessionsEvicted.Add(1)
			go e.close()
		}
	}
}

// evictOldestLocked drops the least-recently-used session. Callers hold
// sessMu and guarantee the table is non-empty.
func (s *Server) evictOldestLocked() {
	var oldest *sessionEntry
	var oid string
	for id, e := range s.sessions {
		if oldest == nil || e.lastUsed.Before(oldest.lastUsed) {
			oldest, oid = e, id
		}
	}
	delete(s.sessions, oid)
	s.sessionsEvicted.Add(1)
	go oldest.close() // may wait on an in-flight resolve; don't hold sessMu for it
}

// close releases the entry's engine state, waiting out any in-flight use.
func (e *sessionEntry) close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	e.sess.Close()
	e.solver.Close()
}

// info snapshots the session block for a response and feeds the counter
// deltas since the last observation into the server-wide rebuild/recompute
// totals. Callers hold e.mu.
func (e *sessionEntry) info(s *Server, id string, created bool) api.SessionInfo {
	st := e.sess.Stats()
	recomputed := 0
	if st.Resolves > e.last.Resolves {
		recomputed = st.LastRecomputed
		s.sessionRecomp.Add(int64(recomputed))
		s.sessionRebuilds.Add(int64(st.FullRebuilds - e.last.FullRebuilds))
	}
	e.last = st
	return api.SessionInfo{
		ID:           id,
		Created:      created,
		Resolves:     st.Resolves,
		FullRebuilds: st.FullRebuilds,
		Recomputed:   recomputed,
	}
}

// buildDeltas converts wire patches into typed session deltas, resolving
// vertex names against the session's tree.
func (e *sessionEntry) buildDeltas(patches []api.SessionPatch) ([]bufferkit.Delta, error) {
	out := make([]bufferkit.Delta, 0, len(patches))
	for i, p := range patches {
		v, ok := e.names[p.Vertex]
		if !ok {
			return nil, badRequestf("patches", "patch %d: unknown vertex %q", i, p.Vertex)
		}
		switch p.Kind {
		case "sink":
			if p.RAT == nil || p.Cap == nil {
				return nil, badRequestf("patches", "patch %d: sink patch needs rat and cap", i)
			}
			out = append(out, bufferkit.SinkDelta{Vertex: v, RAT: *p.RAT, Cap: *p.Cap})
		case "edge":
			if p.Res == nil || p.Cap == nil {
				return nil, badRequestf("patches", "patch %d: edge patch needs res and cap", i)
			}
			out = append(out, bufferkit.EdgeDelta{Vertex: v, R: *p.Res, C: *p.Cap})
		case "buffer":
			if p.OK == nil {
				return nil, badRequestf("patches", "patch %d: buffer patch needs ok", i)
			}
			out = append(out, bufferkit.BufferDelta{Vertex: v, OK: *p.OK, Allowed: p.Allowed})
		default:
			return nil, badRequestf("patches", "patch %d: unknown kind %q (sink, edge or buffer)", i, p.Kind)
		}
	}
	return out, nil
}
