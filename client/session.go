package client

import (
	"context"
	"errors"
	"net/http"
)

// ECO sessions: PUT /v1/sessions/{id} keeps an incremental re-solver warm
// on the server, so a synthesis loop iterating on one net sends typed
// patches and pays only for the perturbed vertex-to-root paths. The server
// may evict an idle session at any time (LRU + TTL); the Session handle
// hides that by remembering the net, library and full patch history and
// transparently recreating + replaying on a 404. Patches set absolute
// values, so the replay — and any retried PUT — is idempotent.

// SinkPatch sets a sink's required arrival time and load capacitance.
func SinkPatch(vertex string, rat, cap float64) SessionPatch {
	return SessionPatch{Kind: "sink", Vertex: vertex, RAT: &rat, Cap: &cap}
}

// EdgePatch sets the R/C of the wire into a vertex.
func EdgePatch(vertex string, res, cap float64) SessionPatch {
	return SessionPatch{Kind: "edge", Vertex: vertex, Res: &res, Cap: &cap}
}

// BufferPatch sets a vertex's buffer-position flag and, optionally, the
// library types allowed there (none = every type).
func BufferPatch(vertex string, ok bool, allowed ...int) SessionPatch {
	return SessionPatch{Kind: "buffer", Vertex: vertex, OK: &ok, Allowed: allowed}
}

// SessionPut issues one raw PUT /v1/sessions/{id}. Most callers want the
// stateful Session handle instead, which survives server-side eviction.
func (c *Client) SessionPut(ctx context.Context, id string, req SessionRequest) (*SessionResult, error) {
	var out SessionResult
	if err := c.doJSON(ctx, http.MethodPut, "/v1/sessions/"+id, &req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SessionDelete closes a server-side session. Unknown ids return an
// *APIError with status 404.
func (c *Client) SessionDelete(ctx context.Context, id string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// Session is a stateful handle on one server-side ECO session. It keeps
// the net, library, options and cumulative patch history, so when the
// server evicts the session the next Patch transparently recreates it and
// replays the history — callers never see the eviction. Not safe for
// concurrent use.
type Session struct {
	c       *Client
	id      string
	net     string
	library string
	opts    SolveOptions
	history []SessionPatch
	created bool
}

// Session opens a handle on session id over the given net and library
// texts. Nothing is sent until the first Patch (or Resolve) call.
func (c *Client) Session(id, netText, libText string, opts SolveOptions) *Session {
	return &Session{c: c, id: id, net: netText, library: libText, opts: opts}
}

// Resolve re-solves the session's current state without new patches.
func (s *Session) Resolve(ctx context.Context) (*SessionResult, error) {
	return s.Patch(ctx)
}

// Patch applies patches and re-solves. The first call creates the session;
// a 404 from an evicted session recreates it with the full patch history
// replayed before the new patches.
func (s *Session) Patch(ctx context.Context, patches ...SessionPatch) (*SessionResult, error) {
	if s.created {
		out, err := s.c.SessionPut(ctx, s.id, SessionRequest{Patches: patches, SolveOptions: s.opts})
		if err == nil {
			s.history = append(s.history, patches...)
			return out, nil
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
			return nil, err
		}
		// Evicted server-side: fall through and recreate with history.
	}
	req := SessionRequest{
		Net:          s.net,
		Library:      s.library,
		Patches:      append(append([]SessionPatch(nil), s.history...), patches...),
		SolveOptions: s.opts,
	}
	out, err := s.c.SessionPut(ctx, s.id, req)
	if err != nil {
		return nil, err
	}
	s.created = true
	s.history = append(s.history, patches...)
	return out, nil
}

// Close deletes the server-side session. A 404 (already evicted) is not an
// error; the handle keeps its history and may be revived by another Patch.
func (s *Session) Close(ctx context.Context) error {
	s.created = false
	err := s.c.SessionDelete(ctx, s.id)
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
		return nil
	}
	return err
}
