package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bufferkit"
	"bufferkit/internal/api"
	"bufferkit/internal/netgen"
	"bufferkit/internal/obs"
	"bufferkit/internal/server/cache"
)

// request is post with an explicit method, for the PUT/DELETE session routes.
func request(t testing.TB, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// sessionFixture builds a bushy balanced net (so a single-sink patch dirties
// far fewer vertices than the tree holds) plus its canonical payload text.
func sessionFixture(t testing.TB) (*bufferkit.Tree, string, string) {
	t.Helper()
	tr := netgen.Balanced(2, 4, 400, 3, 900, netgen.PaperWire())
	return tr, netText(t, tr, "eco", bufferkit.Driver{R: 0.2, K: 15}), readTestdata(t, "lib8.buf")
}

// coldSlack runs a plain solver on the tree for a ground-truth slack.
func coldSlack(t testing.TB, tr *bufferkit.Tree, libText string) float64 {
	t.Helper()
	lib, err := bufferkit.ParseLibrary(strings.NewReader(libText))
	if err != nil {
		t.Fatal(err)
	}
	solver, err := bufferkit.NewSolver(bufferkit.WithLibrary(lib), bufferkit.WithDriver(bufferkit.Driver{R: 0.2, K: 15}))
	if err != nil {
		t.Fatal(err)
	}
	defer solver.Close()
	res, err := solver.Run(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	return res.Slack
}

func TestSessionLifecycle(t *testing.T) {
	tr, net, lib := sessionFixture(t)
	h := New(Config{}).Handler()

	// The creating PUT resolves the whole tree once.
	rec := request(t, h, "PUT", "/v1/sessions/eco1", api.SessionRequest{Net: net, Library: lib})
	if rec.Code != http.StatusOK {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	var created api.SessionResult
	decodeInto(t, rec, &created)
	if !created.Session.Created || created.Session.ID != "eco1" {
		t.Fatalf("session block = %+v", created.Session)
	}
	if created.Session.Resolves != 1 || created.Session.FullRebuilds != 1 {
		t.Fatalf("first resolve counters = %+v", created.Session)
	}
	if created.Session.Recomputed != tr.Len() {
		t.Fatalf("first resolve recomputed %d vertices, want all %d", created.Session.Recomputed, tr.Len())
	}
	if got, want := created.Slack, coldSlack(t, tr, lib); got != want {
		t.Fatalf("session slack %v != cold slack %v", got, want)
	}

	// A single-sink patch recomputes only the sink-to-root path — strictly
	// fewer vertices than the tree holds on this bushy topology — and the
	// result stays bit-identical to a cold solve of the patched net.
	sink := tr.Sinks()[0]
	patched := tr.Clone()
	patched.Verts[sink].RAT = 512.5
	patched.Verts[sink].Cap = 4.25
	rat, cap := 512.5, 4.25
	rec = request(t, h, "PUT", "/v1/sessions/eco1", api.SessionRequest{Patches: []api.SessionPatch{
		{Kind: "sink", Vertex: vertexName(tr, sink), RAT: &rat, Cap: &cap},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("patch: %d %s", rec.Code, rec.Body.String())
	}
	var delta api.SessionResult
	decodeInto(t, rec, &delta)
	if delta.Session.Created || delta.Session.Resolves != 2 {
		t.Fatalf("patched session block = %+v", delta.Session)
	}
	if delta.Session.Recomputed <= 0 || delta.Session.Recomputed >= tr.Len() {
		t.Fatalf("delta resolve recomputed %d vertices, want 0 < n < %d", delta.Session.Recomputed, tr.Len())
	}
	if got, want := delta.Slack, coldSlack(t, patched, lib); got != want {
		t.Fatalf("patched session slack %v != cold slack %v", got, want)
	}
	if delta.Slack == created.Slack {
		t.Fatal("patch did not change the answer; fixture too weak")
	}

	if n := metric(t, h, "session_resolves"); n != 2 {
		t.Fatalf("session_resolves = %d, want 2", n)
	}
	if n := metric(t, h, "sessions_created"); n != 1 {
		t.Fatalf("sessions_created = %d, want 1", n)
	}
	if n := metric(t, h, "session_patches"); n != 1 {
		t.Fatalf("session_patches = %d, want 1", n)
	}
	if n := metric(t, h, "sessions_active"); n != 1 {
		t.Fatalf("sessions_active = %d, want 1", n)
	}
	if n := metric(t, h, "session_full_rebuilds"); n != 1 {
		t.Fatalf("session_full_rebuilds = %d, want 1", n)
	}
	if n := metric(t, h, "session_recomputed_vertices"); n != int64(tr.Len()+delta.Session.Recomputed) {
		t.Fatalf("session_recomputed_vertices = %d, want %d", n, tr.Len()+delta.Session.Recomputed)
	}
}

// TestSessionCacheCoherence: session resolves and plain solves share the
// result cache in both directions, because the session keys its patched tree
// by the same canonical .net text a client would POST.
func TestSessionCacheCoherence(t *testing.T) {
	tr, net, lib := sessionFixture(t)
	h := New(Config{}).Handler()

	// Session first: the creating resolve populates the cache for /v1/solve.
	rec := request(t, h, "PUT", "/v1/sessions/coh", api.SessionRequest{Net: net, Library: lib})
	if rec.Code != http.StatusOK {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	solveRec := post(t, h, "/v1/solve", api.SolveRequest{Net: net, Library: lib})
	if solveRec.Code != http.StatusOK {
		t.Fatalf("solve: %d %s", solveRec.Code, solveRec.Body.String())
	}
	var solved api.SolveResult
	decodeInto(t, solveRec, &solved)
	if !solved.Cached {
		t.Fatal("plain solve of the session's net missed the cache")
	}
	if n := metric(t, h, "engine_runs"); n != 1 {
		t.Fatalf("engine_runs = %d, want 1 (solve served from session's cache entry)", n)
	}

	// Solve first: a plain solve of the patched net pre-warms the cache, and
	// the session's patch resolve is answered from it with zero engine work.
	sink := tr.Sinks()[0]
	patched := tr.Clone()
	patched.Verts[sink].RAT = 777.25
	patched.Verts[sink].Cap = 6.5
	patchedText := netText(t, patched, "eco", bufferkit.Driver{R: 0.2, K: 15})
	solveRec = post(t, h, "/v1/solve", api.SolveRequest{Net: patchedText, Library: lib})
	if solveRec.Code != http.StatusOK {
		t.Fatalf("solve patched: %d %s", solveRec.Code, solveRec.Body.String())
	}
	var cold api.SolveResult
	decodeInto(t, solveRec, &cold)
	if cold.Cached {
		t.Fatal("patched net unexpectedly cached already")
	}

	rat, cap := 777.25, 6.5
	rec = request(t, h, "PUT", "/v1/sessions/coh", api.SessionRequest{Patches: []api.SessionPatch{
		{Kind: "sink", Vertex: vertexName(tr, sink), RAT: &rat, Cap: &cap},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("patch: %d %s", rec.Code, rec.Body.String())
	}
	var warm api.SessionResult
	decodeInto(t, rec, &warm)
	if !warm.Cached {
		t.Fatal("session resolve of pre-solved net missed the cache")
	}
	if warm.Slack != cold.Slack || warm.Buffers != cold.Buffers {
		t.Fatalf("cache returned a different result: %+v vs %+v", warm.SolveResult, cold)
	}
	if warm.Session.Recomputed != 0 || warm.Session.Resolves != 1 {
		t.Fatalf("cache-hit session block = %+v, want no new resolve", warm.Session)
	}
	if n := metric(t, h, "session_cache_hits"); n != 1 {
		t.Fatalf("session_cache_hits = %d, want 1", n)
	}
	if n := metric(t, h, "engine_runs"); n != 2 {
		t.Fatalf("engine_runs = %d, want 2 (session patch answered from cache)", n)
	}
}

func TestSessionErrors(t *testing.T) {
	_, net, lib := sessionFixture(t)
	h := New(Config{}).Handler()

	// Unknown id without net + library cannot create.
	rec := request(t, h, "PUT", "/v1/sessions/ghost", api.SessionRequest{})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("patch unknown session: %d %s", rec.Code, rec.Body.String())
	}

	if rec = request(t, h, "PUT", "/v1/sessions/s", api.SessionRequest{Net: net, Library: lib}); rec.Code != http.StatusOK {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}

	// Re-creating under the same id must match byte for byte.
	other := readTestdata(t, "line.net")
	for _, tc := range []struct {
		name string
		req  api.SessionRequest
	}{
		{"net", api.SessionRequest{Net: other, Library: lib}},
		{"library", api.SessionRequest{Net: net, Library: "buffer b res 1 cin 1 delay 1 cost 1\n"}},
		{"options", api.SessionRequest{Net: net, Library: lib, SolveOptions: api.SolveOptions{Algorithm: "lillis"}}},
	} {
		if rec = request(t, h, "PUT", "/v1/sessions/s", tc.req); rec.Code != http.StatusConflict {
			t.Fatalf("conflicting %s: %d %s", tc.name, rec.Code, rec.Body.String())
		}
	}

	// Malformed patches are rejected before touching the session.
	rat, cap := 1.0, 1.0
	for _, tc := range []struct {
		name  string
		patch api.SessionPatch
	}{
		{"unknown vertex", api.SessionPatch{Kind: "sink", Vertex: "nope", RAT: &rat, Cap: &cap}},
		{"missing fields", api.SessionPatch{Kind: "sink", Vertex: "v1"}},
		{"unknown kind", api.SessionPatch{Kind: "teleport", Vertex: "v1"}},
	} {
		rec = request(t, h, "PUT", "/v1/sessions/s", api.SessionRequest{Patches: []api.SessionPatch{tc.patch}})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: %d %s", tc.name, rec.Code, rec.Body.String())
		}
	}

	// A well-formed patch the engine rejects (sink patch on the source)
	// surfaces as 400 via the session's sticky-error channel...
	rec = request(t, h, "PUT", "/v1/sessions/s", api.SessionRequest{Patches: []api.SessionPatch{
		{Kind: "sink", Vertex: "src", RAT: &rat, Cap: &cap},
	}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("sink patch on source: %d %s", rec.Code, rec.Body.String())
	}
	// ...and the session stays usable afterwards.
	rec = request(t, h, "PUT", "/v1/sessions/s", api.SessionRequest{})
	if rec.Code != http.StatusOK {
		t.Fatalf("resolve after rejected patch: %d %s", rec.Code, rec.Body.String())
	}

	// The sessions endpoint can be disabled outright.
	hOff := New(Config{MaxSessions: -1}).Handler()
	if rec = request(t, hOff, "PUT", "/v1/sessions/s", api.SessionRequest{Net: net, Library: lib}); rec.Code != http.StatusNotFound {
		t.Fatalf("disabled sessions: %d %s", rec.Code, rec.Body.String())
	}
}

// TestSessionRejectsBufferPatchOnSource: the source is the driver, not a
// buffer position. A buffer patch on it gets the typed 400 of the other
// rejected buffer patches and writes no cache entry, and the net the
// session then resolves has no buffer at the source. The strong driver
// makes a buffer at the source attractive to an engine that would take it.
func TestSessionRejectsBufferPatchOnSource(t *testing.T) {
	defer checkNoGoroutineLeak(t)()
	net := strings.Replace(readTestdata(t, "line.net"), "driver res 0.2 k 15", "driver res 2 k 15", 1)
	lib := readTestdata(t, "lib8.buf")
	h := New(Config{}).Handler()
	rec := request(t, h, "PUT", "/v1/sessions/src", api.SessionRequest{Net: net, Library: lib})
	if rec.Code != http.StatusOK {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	var created api.SessionResult
	decodeInto(t, rec, &created)

	stores := metric(t, h, "cache_stores")
	ok := true
	rec = request(t, h, "PUT", "/v1/sessions/src", api.SessionRequest{Patches: []api.SessionPatch{
		{Kind: "buffer", Vertex: "src", OK: &ok},
	}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("buffer patch on source: %d %s", rec.Code, rec.Body.String())
	}
	var e api.ErrorBody
	decodeInto(t, rec, &e)
	if e.Field != "delta" || e.Vertex == nil || *e.Vertex != 0 {
		t.Fatalf("buffer patch on source: error %+v, want field delta at vertex 0", e)
	}
	if got := metric(t, h, "cache_stores"); got != stores {
		t.Fatalf("rejected patch stored %d cache entries", got-stores)
	}

	rec = request(t, h, "PUT", "/v1/sessions/src", api.SessionRequest{})
	if rec.Code != http.StatusOK {
		t.Fatalf("resolve after rejected patch: %d %s", rec.Code, rec.Body.String())
	}
	var after api.SessionResult
	decodeInto(t, rec, &after)
	if _, buffered := after.Placement["src"]; buffered || after.Slack != created.Slack {
		t.Fatalf("after rejected patch: slack %v placement %v, want the unpatched %v", after.Slack, after.Placement, created.Slack)
	}
}

func TestSessionDelete(t *testing.T) {
	defer checkNoGoroutineLeak(t)()
	_, net, lib := sessionFixture(t)
	h := New(Config{}).Handler()

	if rec := request(t, h, "PUT", "/v1/sessions/del", api.SessionRequest{Net: net, Library: lib}); rec.Code != http.StatusOK {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	rec := request(t, h, "DELETE", "/v1/sessions/del", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body.String())
	}
	var closed map[string]any
	decodeInto(t, rec, &closed)
	if closed["closed"] != true || closed["id"] != "del" {
		t.Fatalf("delete reply = %v", closed)
	}
	if rec = request(t, h, "DELETE", "/v1/sessions/del", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("double delete: %d %s", rec.Code, rec.Body.String())
	}
	// A patches-only PUT after delete is a 404; resending net and library
	// recreates the session under the same id.
	if rec = request(t, h, "PUT", "/v1/sessions/del", api.SessionRequest{}); rec.Code != http.StatusNotFound {
		t.Fatalf("patch deleted session: %d %s", rec.Code, rec.Body.String())
	}
	rec = request(t, h, "PUT", "/v1/sessions/del", api.SessionRequest{Net: net, Library: lib})
	if rec.Code != http.StatusOK {
		t.Fatalf("recreate: %d %s", rec.Code, rec.Body.String())
	}
	var resp api.SessionResult
	decodeInto(t, rec, &resp)
	if !resp.Session.Created {
		t.Fatalf("recreate session block = %+v", resp.Session)
	}
}

func TestSessionLRUEviction(t *testing.T) {
	defer checkNoGoroutineLeak(t)()
	_, net, lib := sessionFixture(t)
	h := New(Config{MaxSessions: 2}).Handler()

	for _, id := range []string{"a", "b", "c"} {
		if rec := request(t, h, "PUT", "/v1/sessions/"+id, api.SessionRequest{Net: net, Library: lib}); rec.Code != http.StatusOK {
			t.Fatalf("create %s: %d %s", id, rec.Code, rec.Body.String())
		}
	}
	if n := metric(t, h, "sessions_evicted"); n != 1 {
		t.Fatalf("sessions_evicted = %d, want 1", n)
	}
	if n := metric(t, h, "sessions_active"); n != 2 {
		t.Fatalf("sessions_active = %d, want 2", n)
	}
	// "a" was least recently used and is gone; "b" and "c" still answer.
	if rec := request(t, h, "PUT", "/v1/sessions/a", api.SessionRequest{}); rec.Code != http.StatusNotFound {
		t.Fatalf("evicted session a: %d %s", rec.Code, rec.Body.String())
	}
	for _, id := range []string{"b", "c"} {
		if rec := request(t, h, "PUT", "/v1/sessions/"+id, api.SessionRequest{}); rec.Code != http.StatusOK {
			t.Fatalf("surviving session %s: %d %s", id, rec.Code, rec.Body.String())
		}
	}
}

// TestSessionConcurrentPutDeleteEviction hammers a small session table
// with racing creates, patches and deletes across more ids than the LRU
// holds, so every request contends with eviction. The invariants: no
// request ever sees anything but 200 (served) or 404 (evicted or
// deleted — the documented recreate signal), the table never exceeds its
// cap, the server stays coherent afterwards, and no goroutine leaks.
// Run under -race this doubles as the session-table race detector.
func TestSessionConcurrentPutDeleteEviction(t *testing.T) {
	defer checkNoGoroutineLeak(t)()
	tr, net, lib := sessionFixture(t)
	s := New(Config{MaxSessions: 4})
	h := s.Handler()

	sinkIdx := tr.Sinks()[0]
	sink := vertexName(tr, sinkIdx)
	const (
		ids     = 8 // twice the cap: creates constantly evict
		workers = 8
		iters   = 25
	)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("race-%d", rng.Intn(ids))
				var rec *httptest.ResponseRecorder
				switch op := rng.Intn(4); op {
				case 0: // creating PUT: always lands (may evict someone)
					rec = request(t, h, "PUT", "/v1/sessions/"+id, api.SessionRequest{Net: net, Library: lib})
					if rec.Code != http.StatusOK {
						t.Errorf("create %s: %d %s", id, rec.Code, rec.Body.String())
					}
				case 1: // DELETE: ok or already gone
					rec = request(t, h, "DELETE", "/v1/sessions/"+id, nil)
					if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
						t.Errorf("delete %s: %d %s", id, rec.Code, rec.Body.String())
					}
				default: // patch PUT: ok, or 404 if evicted/deleted underneath us
					rat, cap := 500+float64(rng.Intn(100)), 1+float64(rng.Intn(8))
					rec = request(t, h, "PUT", "/v1/sessions/"+id, api.SessionRequest{Patches: []api.SessionPatch{
						{Kind: "sink", Vertex: sink, RAT: &rat, Cap: &cap},
					}})
					if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
						t.Errorf("patch %s: %d %s", id, rec.Code, rec.Body.String())
					}
				}
			}
		}()
	}
	wg.Wait()

	// The table respected its cap throughout (eviction is synchronous
	// under sessMu) and the server is still fully functional.
	if n := metric(t, h, "sessions_active"); n > 4 {
		t.Fatalf("sessions_active = %d after the storm, cap is 4", n)
	}
	rec := request(t, h, "PUT", "/v1/sessions/after", api.SessionRequest{Net: net, Library: lib})
	if rec.Code != http.StatusOK {
		t.Fatalf("create after storm: %d %s", rec.Code, rec.Body.String())
	}
	rat, cap := 512.5, 4.25
	rec = request(t, h, "PUT", "/v1/sessions/after", api.SessionRequest{Patches: []api.SessionPatch{
		{Kind: "sink", Vertex: sink, RAT: &rat, Cap: &cap},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("patch after storm: %d %s", rec.Code, rec.Body.String())
	}
	var resp api.SessionResult
	decodeInto(t, rec, &resp)
	if resp.Session.Created {
		t.Fatalf("post-storm patch recreated the session: %+v", resp.Session)
	}
	// Ground truth: whatever the storm left in the result cache, the
	// patched session must answer bit-identically to a cold solve.
	patched := tr.Clone()
	patched.Verts[sinkIdx].RAT = 512.5
	patched.Verts[sinkIdx].Cap = 4.25
	if want := coldSlack(t, patched, lib); resp.Slack != want {
		t.Fatalf("post-storm slack %v != cold slack %v", resp.Slack, want)
	}
}

func TestSessionTTLEviction(t *testing.T) {
	defer checkNoGoroutineLeak(t)()
	_, net, lib := sessionFixture(t)
	h := New(Config{SessionTTL: time.Millisecond}).Handler()

	if rec := request(t, h, "PUT", "/v1/sessions/old", api.SessionRequest{Net: net, Library: lib}); rec.Code != http.StatusOK {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	time.Sleep(5 * time.Millisecond)
	// Any session request sweeps expired entries before the table lookup.
	if rec := request(t, h, "PUT", "/v1/sessions/old", api.SessionRequest{}); rec.Code != http.StatusNotFound {
		t.Fatalf("expired session: %d %s", rec.Code, rec.Body.String())
	}
	if n := metric(t, h, "sessions_evicted"); n != 1 {
		t.Fatalf("sessions_evicted = %d, want 1", n)
	}
	if n := metric(t, h, "sessions_active"); n != 0 {
		t.Fatalf("sessions_active = %d, want 0", n)
	}
}

// TestSessionTraceSpans: a session PUT is traced like /v1/solve. The
// create, a missing patch and a patch that returns to an earlier net each
// archive a cache_lookup span with its hit attribute and an encode span,
// the trace carries the key's digest, and only the hit is marked cached.
// The hit's digest is the earlier net's.
func TestSessionTraceSpans(t *testing.T) {
	tr, net, lib := sessionFixture(t)
	h := New(Config{}).Handler()
	sink := vertexName(tr, tr.Sinks()[0])
	patch := func(rat float64) api.SessionRequest {
		cap := 5.0
		return api.SessionRequest{Patches: []api.SessionPatch{{Kind: "sink", Vertex: sink, RAT: &rat, Cap: &cap}}}
	}
	steps := []struct {
		name string
		req  api.SessionRequest
		hit  bool
	}{
		{"create", api.SessionRequest{Net: net, Library: lib}, false},
		{"patch", patch(600.5), false},
		{"second patch", patch(700.25), false},
		{"patch back", patch(600.5), true},
	}
	digests := make([]string, len(steps))
	for i, st := range steps {
		rec := request(t, h, "PUT", "/v1/sessions/traced", st.req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", st.name, rec.Code, rec.Body.String())
		}
		id := rec.Header().Get(traceHeader)
		var ring struct {
			Traces []obs.TraceJSON `json:"traces"`
		}
		decodeInto(t, get(t, h, "/debug/traces"), &ring)
		var found *obs.TraceJSON
		for k := range ring.Traces {
			if ring.Traces[k].Trace == id {
				found = &ring.Traces[k]
			}
		}
		if found == nil {
			t.Fatalf("%s: trace %q not in /debug/traces", st.name, id)
		}
		spans := map[string]obs.SpanJSON{}
		for _, sp := range found.Spans {
			spans[sp.Name] = sp
		}
		lookup, ok := spans["cache_lookup"]
		if !ok || lookup.Attrs["hit"] != st.hit {
			t.Fatalf("%s: cache_lookup span %+v (present %v), want hit=%v", st.name, lookup, ok, st.hit)
		}
		if _, ok := spans["encode"]; !ok {
			t.Fatalf("%s: no encode span in %+v", st.name, found.Spans)
		}
		digests[i], _ = found.Attrs["digest"].(string)
		if len(digests[i]) != 16 {
			t.Fatalf("%s: digest attribute %v, want 16 hex digits", st.name, found.Attrs["digest"])
		}
		if cached, _ := found.Attrs["cached"].(bool); cached != st.hit {
			t.Fatalf("%s: cached attribute %v, want %v", st.name, found.Attrs["cached"], st.hit)
		}
	}
	if digests[3] != digests[1] || digests[2] == digests[1] || digests[1] == digests[0] {
		t.Fatalf("digests %v: want patch back == patch, all others distinct", digests)
	}
}

// TestSessionKeyProperty: after random batches of sink, edge and buffer
// patches, the session's cache key is the one /v1/solve computes for
// WriteNet of a mirror tree the test patches itself. After every accepted
// PUT a plain solve of the mirror's text is a cache hit with the session's
// slack; a rejected batch (a bad patch after valid ones) leaves the key,
// and the next resolve's answer, unchanged.
func TestSessionKeyProperty(t *testing.T) {
	_, net, lib := sessionFixture(t)
	parsed, err := bufferkit.ParseNet(strings.NewReader(net))
	if err != nil {
		t.Fatal(err)
	}
	mirror := parsed.Tree.Clone()
	var sinks, nodes []string
	isSink := map[int]bool{}
	for _, v := range mirror.Sinks() {
		isSink[v] = true
		sinks = append(sinks, mirror.Verts[v].Name)
	}
	for v := 1; v < mirror.Len(); v++ {
		if !isSink[v] {
			nodes = append(nodes, mirror.Verts[v].Name)
		}
	}
	verts := append(append([]string(nil), sinks...), nodes...)
	ids := map[string]int{}
	for v := range mirror.Verts {
		ids[vertexName(mirror, v)] = v
	}
	mirrorText := func() string {
		var b bytes.Buffer
		if err := bufferkit.WriteNet(&b, &bufferkit.Net{Name: parsed.Name, Tree: mirror, Driver: parsed.Driver}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	srv := New(Config{})
	h := srv.Handler()
	if rec := request(t, h, "PUT", "/v1/sessions/prop", api.SessionRequest{Net: net, Library: lib}); rec.Code != http.StatusOK {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	srv.sessMu.Lock()
	e := srv.sessions["prop"]
	srv.sessMu.Unlock()
	sessionKey := func() cache.Key {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.cacheKey()
	}
	wantKey := func() cache.Key {
		return cache.NewKey([]byte(mirrorText()), []byte(lib), cacheOptions(api.SolveOptions{}))
	}

	rng := rand.New(rand.NewSource(23))
	num := func(lo, hi float64) *float64 { x := lo + (hi-lo)*rng.Float64(); return &x }
	bad := []api.SessionPatch{
		{Kind: "sink", Vertex: "nope", RAT: num(500, 1500), Cap: num(1, 20)},
		{Kind: "buffer", Vertex: "src", OK: new(bool)},
		{Kind: "wire", Vertex: nodes[0]},
	}
	var accepted, rejected int
	for round := 0; round < 80; round++ {
		var batch []api.SessionPatch
		for n := 1 + rng.Intn(4); n > 0; n-- {
			switch rng.Intn(3) {
			case 0:
				batch = append(batch, api.SessionPatch{Kind: "sink", Vertex: sinks[rng.Intn(len(sinks))],
					RAT: num(500, 1500), Cap: num(1, 20)})
			case 1:
				batch = append(batch, api.SessionPatch{Kind: "edge", Vertex: verts[rng.Intn(len(verts))],
					Res: num(0, 1), Cap: num(0, 10)})
			default:
				ok := rng.Intn(2) == 0
				var allowed []int
				if rng.Intn(2) == 0 {
					allowed = rng.Perm(8)[:1+rng.Intn(8)] // unsorted, indices of lib8
				}
				batch = append(batch, api.SessionPatch{Kind: "buffer", Vertex: nodes[rng.Intn(len(nodes))],
					OK: &ok, Allowed: allowed})
			}
		}
		if rng.Intn(4) == 0 {
			before := sessionKey()
			batch = append(batch, bad[rng.Intn(len(bad))])
			if rec := request(t, h, "PUT", "/v1/sessions/prop", api.SessionRequest{Patches: batch}); rec.Code != http.StatusBadRequest {
				t.Fatalf("round %d: rejected batch: %d %s", round, rec.Code, rec.Body.String())
			}
			if sessionKey() != before {
				t.Fatalf("round %d: a rejected batch changed the session key", round)
			}
			rec := request(t, h, "PUT", "/v1/sessions/prop", api.SessionRequest{})
			var again api.SessionResult
			decodeInto(t, rec, &again)
			if rec.Code != http.StatusOK || !again.Cached {
				t.Fatalf("round %d: resolve after a rejected batch: %d cached=%v", round, rec.Code, again.Cached)
			}
			rejected++
			continue
		}

		for _, p := range batch {
			v := &mirror.Verts[ids[p.Vertex]]
			switch p.Kind {
			case "sink":
				v.RAT, v.Cap = *p.RAT, *p.Cap
			case "edge":
				v.EdgeR, v.EdgeC = *p.Res, *p.Cap
			case "buffer":
				v.BufferOK, v.Allowed = *p.OK, append([]int(nil), p.Allowed...)
			}
		}
		rec := request(t, h, "PUT", "/v1/sessions/prop", api.SessionRequest{Patches: batch})
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: %d %s", round, rec.Code, rec.Body.String())
		}
		var got api.SessionResult
		decodeInto(t, rec, &got)
		if sessionKey() != wantKey() {
			t.Fatalf("round %d: session key differs from the mirror's WriteNet key", round)
		}
		solveRec := post(t, h, "/v1/solve", api.SolveRequest{Net: mirrorText(), Library: lib})
		var solved api.SolveResult
		decodeInto(t, solveRec, &solved)
		if solveRec.Code != http.StatusOK || !solved.Cached || solved.Slack != got.Slack {
			t.Fatalf("round %d: solve of the mirror: %d cached=%v slack %v, session slack %v",
				round, solveRec.Code, solved.Cached, solved.Slack, got.Slack)
		}
		accepted++
	}
	if accepted < 40 || rejected < 10 {
		t.Fatalf("%d accepted and %d rejected batches; the mix is too thin", accepted, rejected)
	}
}
