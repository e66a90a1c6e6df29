package server

import (
	"fmt"
	"net/http"
	"testing"

	"bufferkit"
	"bufferkit/internal/api"
)

// TestBadOptionsRejectedEverywhere: every engine-running endpoint rejects
// the same bad solve options with a 400 naming the same field — /v1/batch
// and /v1/chip before their NDJSON stream starts, and a session PUT before
// it creates the session.
func TestBadOptionsRejectedEverywhere(t *testing.T) {
	h := New(Config{}).Handler()
	lib := readTestdata(t, "lib8.buf") // 8 types: too many for vanginneken
	net := readTestdata(t, "line.net")
	inst := chipInstanceJSON(t, bufferkit.ChipGenOpts{W: 4, H: 4, Nets: 3, Capacity: 2, Seed: 1})
	cases := []struct {
		name   string
		opts   api.SolveOptions
		legacy legacyOptions
		field  string
	}{
		{"unknown algorithm", api.SolveOptions{Algorithm: "nope"}, legacyOptions{}, "algorithm"},
		{"vanginneken multi-type library", api.SolveOptions{Algorithm: bufferkit.AlgoVanGinneken}, legacyOptions{}, "library"},
		{"destructive prune", api.SolveOptions{}, legacyOptions{Prune: "destructive"}, "prune"},
		{"negative timeout", api.SolveOptions{TimeoutMs: -5}, legacyOptions{}, "timeout_ms"},
		{"negative max_cost", api.SolveOptions{MaxCost: -3}, legacyOptions{}, "max_cost"},
		{"unknown backend", api.SolveOptions{}, legacyOptions{Backend: "bogus"}, "backend"},
	}
	for i, tc := range cases {
		endpoints := []struct {
			method, path string
			body         any
		}{
			{"POST", "/v1/solve", solveRequest{api.SolveRequest{Net: net, Library: lib, SolveOptions: tc.opts}, tc.legacy}},
			{"POST", "/v1/batch", batchRequest{api.BatchRequest{Nets: []string{net}, Library: lib, SolveOptions: tc.opts}, tc.legacy}},
			{"POST", "/v1/yield", yieldRequest{api.YieldRequest{Net: net, Library: lib, Samples: 2, Sigma: 0.05, SolveOptions: tc.opts}, tc.legacy}},
			{"POST", "/v1/chip", chipRequest{api.ChipRequest{Instance: inst, Library: lib, SolveOptions: tc.opts}, tc.legacy}},
			{"PUT", fmt.Sprintf("/v1/sessions/bad-%d", i), sessionRequest{api.SessionRequest{Net: net, Library: lib, SolveOptions: tc.opts}, tc.legacy}},
		}
		for _, ep := range endpoints {
			t.Run(tc.name+" "+ep.path, func(t *testing.T) {
				rec := request(t, h, ep.method, ep.path, ep.body)
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.String())
				}
				var er api.ErrorBody
				decodeInto(t, rec, &er)
				if er.Field != tc.field {
					t.Fatalf("field %q, want %q (%s)", er.Field, tc.field, er.Error)
				}
			})
		}
	}
	if n := metric(t, h, "sessions_created"); n != 0 {
		t.Fatalf("sessions_created = %d: a rejected PUT created a session", n)
	}
}

// TestSessionResolveCountsEngineWork: a session resolve runs the engine,
// so its DP work moves engine_candidates_total like a solve's does.
func TestSessionResolveCountsEngineWork(t *testing.T) {
	h := New(Config{}).Handler()
	_, net, lib := sessionFixture(t)
	before := metric(t, h, "engine_candidates_total")
	rec := request(t, h, "PUT", "/v1/sessions/work", api.SessionRequest{Net: net, Library: lib})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp api.SessionResult
	decodeInto(t, rec, &resp)
	if resp.Stats == nil || resp.Stats.BetasGenerated == 0 {
		t.Fatalf("session resolve reported no engine stats: %+v", resp.Stats)
	}
	if got := metric(t, h, "engine_candidates_total") - before; got != int64(resp.Stats.BetasGenerated) {
		t.Fatalf("engine_candidates_total moved by %d, want the resolve's %d", got, resp.Stats.BetasGenerated)
	}
}
