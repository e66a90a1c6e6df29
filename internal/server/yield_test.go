package server

import (
	"net/http"
	"strings"
	"testing"

	"bufferkit"
	"bufferkit/internal/api"
)

func yieldReq(samples int, sigma float64) yieldRequest {
	seed := int64(3)
	return yieldRequest{YieldRequest: api.YieldRequest{
		Net:     "net y\ndriver res 0.2 k 15\nnode n1 parent src res 0.3 cap 400 buffer\nsink s1 parent n1 res 0.3 cap 400 load 12 rat 1000\n",
		Samples: samples,
		Sigma:   sigma,
		Seed:    &seed,
	}}
}

// TestYieldSeedCanonicalization: an absent seed and the explicit default
// share one cache entry, while seed 0 is a real, distinct seed (not
// remapped to the default).
func TestYieldSeedCanonicalization(t *testing.T) {
	h := New(Config{}).Handler()
	req := yieldReq(8, 0.1)
	req.Library = readTestdata(t, "lib8.buf")
	req.Seed = nil
	if rec := post(t, h, "/v1/yield", req); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	one := int64(1)
	req.Seed = &one
	var resp api.YieldResult
	decodeInto(t, post(t, h, "/v1/yield", req), &resp)
	if !resp.Cached {
		t.Fatal("explicit default seed missed the absent-seed cache entry")
	}
	zero := int64(0)
	req.Seed = &zero
	decodeInto(t, post(t, h, "/v1/yield", req), &resp)
	if resp.Cached {
		t.Fatal("seed 0 aliased onto the default seed's cache entry")
	}
}

func TestYieldHappyPath(t *testing.T) {
	h := New(Config{}).Handler()
	req := yieldReq(32, 0.08)
	req.Library = readTestdata(t, "lib8.buf")
	req.Robust = true
	req.ProcessCorners = true
	rec := post(t, h, "/v1/yield", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp api.YieldResult
	decodeInto(t, rec, &resp)
	if resp.Samples != 1+4+32 {
		t.Fatalf("samples %d, want 37 (nominal + 4 corners + 32 MC)", resp.Samples)
	}
	if resp.Algorithm != bufferkit.AlgoNew {
		t.Fatalf("algorithm %q, want %q", resp.Algorithm, bufferkit.AlgoNew)
	}
	if resp.Yield < 0 || resp.Yield > 1 || resp.OptimalYield < resp.Yield {
		t.Fatalf("incoherent yields: %g > optimal %g", resp.Yield, resp.OptimalYield)
	}
	if !(resp.Slack.Min <= resp.Slack.P50 && resp.Slack.P50 <= resp.Slack.Max) {
		t.Fatalf("incoherent distribution: %+v", resp.Slack)
	}
	if len(resp.Placements) == 0 || resp.Chosen >= len(resp.Placements) {
		t.Fatalf("bad placements summary: chosen %d of %d", resp.Chosen, len(resp.Placements))
	}
	if resp.Cached {
		t.Fatal("first request reported cached")
	}
	if got := metric(t, h, "yield_requests"); got != 1 {
		t.Fatalf("yield_requests = %d, want 1", got)
	}
	if got := metric(t, h, "yield_samples"); got != 37 {
		t.Fatalf("yield_samples = %d, want 37", got)
	}
}

// TestYieldDeterministicAndCached: the same payload must hit the cache on
// the second call (no engine runs) and return the identical result.
func TestYieldDeterministicAndCached(t *testing.T) {
	h := New(Config{}).Handler()
	req := yieldReq(16, 0.1)
	req.Library = readTestdata(t, "lib8.buf")

	rec1 := post(t, h, "/v1/yield", req)
	if rec1.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec1.Code, rec1.Body.String())
	}
	runsAfterFirst := metric(t, h, "engine_runs")

	rec2 := post(t, h, "/v1/yield", req)
	if rec2.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec2.Code, rec2.Body.String())
	}
	var a, b api.YieldResult
	decodeInto(t, rec1, &a)
	decodeInto(t, rec2, &b)
	if !b.Cached {
		t.Fatal("second identical request not served from cache")
	}
	if got := metric(t, h, "engine_runs"); got != runsAfterFirst {
		t.Fatalf("cache hit still ran engines: %d -> %d", runsAfterFirst, got)
	}
	a.Cached, a.ElapsedMs = b.Cached, b.ElapsedMs
	if a.Yield != b.Yield || a.Slack != b.Slack || a.Buffers != b.Buffers {
		t.Fatalf("cached result differs:\n%+v\n%+v", a, b)
	}

	// Different sweep parameters must not share the entry.
	req.Sigma = 0.2
	var c api.YieldResult
	rec3 := post(t, h, "/v1/yield", req)
	decodeInto(t, rec3, &c)
	if c.Cached {
		t.Fatal("different sigma hit the same cache entry")
	}
}

func TestYieldValidation(t *testing.T) {
	h := New(Config{MaxYieldSamples: 64}).Handler()
	lib := readTestdata(t, "lib8.buf")
	cases := []struct {
		name   string
		mutate func(*yieldRequest)
		field  string
	}{
		{"negative samples", func(r *yieldRequest) { r.Samples = -1 }, "samples"},
		{"over cap", func(r *yieldRequest) { r.Samples = 65 }, "samples"},
		{"bad sigma", func(r *yieldRequest) { r.Sigma = 0.75 }, "sigma"},
		{"bad algorithm", func(r *yieldRequest) { r.Algorithm = "nope" }, "algorithm"},
		{"non-core algorithm", func(r *yieldRequest) { r.Algorithm = "lillis" }, "algorithm"},
		{"bad net", func(r *yieldRequest) { r.Net = "garbage\n" }, "net"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := yieldReq(8, 0.05)
			req.Library = lib
			tc.mutate(&req)
			rec := post(t, h, "/v1/yield", req)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.String())
			}
			var er api.ErrorBody
			decodeInto(t, rec, &er)
			if tc.field != "" && er.Field != tc.field {
				t.Fatalf("field %q, want %q (%s)", er.Field, tc.field, rec.Body.String())
			}
		})
	}
}

// TestYieldInfeasible: a polarity-infeasible instance maps to 422, same as
// /v1/solve.
func TestYieldInfeasible(t *testing.T) {
	h := New(Config{}).Handler()
	var lb strings.Builder
	if err := bufferkit.WriteLibrary(&lb, bufferkit.GenerateLibraryWithInverters(4)); err != nil {
		t.Fatal(err)
	}
	rec := post(t, h, "/v1/yield", api.YieldRequest{
		Net:     "sink s1 parent src res 0.1 cap 5 load 10 rat 1000 neg\n",
		Library: lb.String(),
		Samples: 4,
		Sigma:   0.05,
	})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body.String())
	}
}

// TestYieldDeadline: a 1 ms budget on a large sweep aborts mid-run, maps
// to 504, and records partial progress in the yield abort counters.
func TestYieldDeadline(t *testing.T) {
	h := New(Config{}).Handler()
	tr, err := bufferkit.IndustrialNet(500, 40000, 7)
	if err != nil {
		t.Fatal(err)
	}
	req := api.YieldRequest{
		Net:          netText(t, tr, "huge", bufferkit.Driver{R: 0.2, K: 15}),
		Library:      readTestdata(t, "lib8.buf"),
		Samples:      512,
		Sigma:        0.05,
		SolveOptions: api.SolveOptions{TimeoutMs: 1},
	}
	rec := post(t, h, "/v1/yield", req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	var er api.ErrorBody
	decodeInto(t, rec, &er)
	if !strings.Contains(er.Error, "aborted after") {
		t.Fatalf("error %q does not report partial progress", er.Error)
	}
	if got := metric(t, h, "yield_deadline_aborts"); got != 1 {
		t.Fatalf("yield_deadline_aborts = %d, want 1", got)
	}
	// The aborted-samples counter must exist (it may legitimately be 0 if
	// the deadline fired before the first corner finished).
	if got := metric(t, h, "yield_aborted_samples"); got < 0 || got >= 513 {
		t.Fatalf("yield_aborted_samples = %d, want [0, 513)", got)
	}
}

// TestYieldBackendsAgree: the ignored backend field returns sweeps
// identical to a request without it, sharing its cache entry.
func TestYieldBackendsAgree(t *testing.T) {
	h := New(Config{}).Handler()
	var want api.YieldResult
	for i, backend := range []string{"", "list", "soa"} {
		req := yieldReq(24, 0.1)
		req.Library = readTestdata(t, "lib8.buf")
		req.Backend = backend
		rec := post(t, h, "/v1/yield", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%q: status %d: %s", backend, rec.Code, rec.Body.String())
		}
		var resp api.YieldResult
		decodeInto(t, rec, &resp)
		if i == 0 {
			want = resp
			continue
		}
		if !resp.Cached {
			t.Fatalf("%q: missed the cache entry of the request without the field", backend)
		}
		if resp.Yield != want.Yield || resp.Slack != want.Slack || resp.Buffers != want.Buffers || resp.Cost != want.Cost {
			t.Fatalf("%q: sweep differs:\n got %+v\nwant %+v", backend, resp, want)
		}
	}
}
