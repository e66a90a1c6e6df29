package server

import (
	"bufferkit/internal/api"

	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bufferkit/internal/obs"
	"bufferkit/internal/testutil"
)

// TestLatencyHistOverflowBucket: an observation beyond the last bound
// lands in the le_inf overflow bin, and count/sum stay consistent — the
// invariant the Prometheus mapping's +Inf fold depends on.
func TestLatencyHistOverflowBucket(t *testing.T) {
	h := newLatencyHist()
	last := latencyBucketsMs[len(latencyBucketsMs)-1]
	h.observe(time.Duration(2*last) * time.Millisecond) // past every bound
	h.observe(500 * time.Microsecond)                   // first bin
	if got := h.bins[len(h.bins)-1].Value(); got != 1 {
		t.Errorf("overflow bin = %d, want 1", got)
	}
	if got := h.bins[0].Value(); got != 1 {
		t.Errorf("first bin = %d, want 1", got)
	}
	if got := h.count.Value(); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
	if got := h.sumMs.Value(); got != 2*last+0.5 {
		t.Errorf("sum_ms = %g, want %g", got, 2*last+0.5)
	}
	// The rendered expvar map exposes the overflow under "le_inf".
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(h.m.String()), &m); err != nil {
		t.Fatal(err)
	}
	if string(m["le_inf"]) != "1" {
		t.Errorf(`le_inf = %s, want 1`, m["le_inf"])
	}
}

// TestLatencyHistConcurrentObserve hammers one histogram from many
// goroutines under -race. Every component is a single expvar (Int.Add and
// Float.Add are both atomic — Float uses a CAS loop), so concurrent
// observes must neither race nor lose counts.
func TestLatencyHistConcurrentObserve(t *testing.T) {
	h := newLatencyHist()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.observe(time.Duration(w*i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := h.count.Value(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	var binSum int64
	for _, b := range h.bins {
		binSum += b.Value()
	}
	if binSum != workers*per {
		t.Fatalf("bin sum = %d, want %d", binSum, workers*per)
	}
}

// TestErrorPayloadIncludesTrace: every JSON error body carries the trace
// id that the X-Bufferkit-Trace header announced, so a caller can quote a
// failure against /debug/traces. Regression test for the error path — the
// success path is covered by the fleet round-trip test.
func TestErrorPayloadIncludesTrace(t *testing.T) {
	h := New(Config{}).Handler()
	req := httptest.NewRequest("POST", "/v1/solve", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	hdr := rec.Header().Get("X-Bufferkit-Trace")
	if len(hdr) != 32 {
		t.Fatalf("X-Bufferkit-Trace = %q, want a 32-hex trace id", hdr)
	}
	var body struct {
		Error string `json:"error"`
		Trace string `json:"trace"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Trace != hdr {
		t.Fatalf("body trace %q != header trace %q", body.Trace, hdr)
	}
}

// TestErrorTraceDisabled: with tracing off (TraceRing < 0) error bodies
// omit the trace field instead of carrying an empty string.
func TestErrorTraceDisabled(t *testing.T) {
	h := New(Config{TraceRing: -1}).Handler()
	req := httptest.NewRequest("POST", "/v1/solve", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if bytes.Contains(rec.Body.Bytes(), []byte(`"trace"`)) {
		t.Fatalf("disabled tracing still emitted a trace field: %s", rec.Body.Bytes())
	}
}

// TestMetricsPromNegotiation: GET /metrics stays expvar JSON by default
// and renders the Prometheus text format under Accept: text/plain or
// ?format=prom, with identical metric names, cumulative histogram buckets
// and bucket{+Inf} == _count.
func TestMetricsPromNegotiation(t *testing.T) {
	h := New(Config{}).Handler()
	solve := func() {
		body, err := json.Marshal(api.SolveRequest{
			Net:     readTestdata(t, "line.net"),
			Library: readTestdata(t, "lib8.buf"),
		})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("solve = %d: %s", rec.Code, rec.Body.String())
		}
	}
	solve() // engine run — the one solve_latency_ms observation
	solve() // cache hit

	// Default stays JSON for existing scrapers.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("default /metrics Content-Type = %q", ct)
	}
	var asJSON map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &asJSON); err != nil {
		t.Fatalf("default /metrics is not JSON: %v", err)
	}

	for _, req := range []*http.Request{
		httptest.NewRequest("GET", "/metrics?format=prom", nil),
		func() *http.Request {
			r := httptest.NewRequest("GET", "/metrics", nil)
			r.Header.Set("Accept", "text/plain")
			return r
		}(),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
			t.Fatalf("prom Content-Type = %q, want %q", ct, obs.PromContentType)
		}
		pm, err := testutil.ParseProm(rec.Body.String())
		if err != nil {
			t.Fatalf("prom output does not parse: %v\n%s", err, rec.Body.String())
		}
		// Names are identical to the JSON exposition.
		for _, name := range []string{"solve_requests", "engine_runs", "cache_hits",
			"engine_candidates_total", "engine_pruned_total", "traces_total"} {
			if _, ok := pm.Samples[name]; !ok {
				t.Errorf("sample %q missing from prom exposition", name)
			}
			if _, ok := asJSON[name]; !ok {
				t.Errorf("sample %q missing from JSON exposition", name)
			}
		}
		if pm.Samples["solve_requests"] != 2 || pm.Samples["engine_runs"] != 1 {
			t.Errorf("solve_requests = %g, engine_runs = %g",
				pm.Samples["solve_requests"], pm.Samples["engine_runs"])
		}
		if pm.Types["solve_latency_ms"] != "histogram" {
			t.Errorf("solve_latency_ms TYPE = %q", pm.Types["solve_latency_ms"])
		}
		if pm.Types["in_flight_runs"] != "gauge" || pm.Types["engine_runs"] != "counter" {
			t.Errorf("types: in_flight_runs=%q engine_runs=%q",
				pm.Types["in_flight_runs"], pm.Types["engine_runs"])
		}
		// Buckets are cumulative and the +Inf bucket equals _count.
		inf := pm.Samples[testutil.Bucket("solve_latency_ms", "+Inf")]
		if inf != pm.Samples["solve_latency_ms_count"] || inf != 1 {
			t.Errorf("bucket{+Inf} = %g, _count = %g, want 1 (only the engine run observes)",
				inf, pm.Samples["solve_latency_ms_count"])
		}
		var prev float64
		for _, b := range latencyBucketsMs {
			cur, ok := pm.Samples[testutil.Bucket("solve_latency_ms", fmt.Sprintf("%g", b))]
			if !ok {
				t.Fatalf("bucket le=%g missing", b)
			}
			if cur < prev {
				t.Fatalf("buckets not cumulative at le=%g: %g < %g", b, cur, prev)
			}
			prev = cur
		}
	}
}

// lockedBuf is a goroutine-safe log sink: fleet probes keep logging while
// the test reads.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// tracesAt fetches node i's /debug/traces ring.
func (tf *testFleet) tracesAt(t testing.TB, i int) []obs.TraceJSON {
	t.Helper()
	status, b := tf.do(t, "GET", i, "/debug/traces", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("GET /debug/traces on node %d = %d: %s", i, status, b)
	}
	var out struct {
		Count  int             `json:"count"`
		Traces []obs.TraceJSON `json:"traces"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out.Traces
}

// findTrace returns the newest archived trace with the given id and at
// least one span named need, polling briefly — a node archives its trace
// after it has written the response, so the origin can observe the reply
// a moment before the home's ring updates.
func (tf *testFleet) findTrace(t testing.TB, i int, id, need string) *obs.TraceJSON {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, tj := range tf.tracesAt(t, i) {
			if tj.Trace != id {
				continue
			}
			for _, sp := range tj.Spans {
				if sp.Name == need {
					return &tj
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d never archived trace %s with a %q span", i, id, need)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetTraceRoundTrip: one W3C traceparent spans the whole fleet. A
// solve sent to a non-owner with an inbound traceparent keeps that trace
// id through the forward to the home, the home's engine run, and back out
// the origin's X-Bufferkit-Trace header — and both nodes' request-summary
// log lines carry it.
func TestFleetTraceRoundTrip(t *testing.T) {
	logs := make([]*lockedBuf, 3)
	tf := startTestFleet(t, 3, nil, func(i int, cfg *Config) {
		logs[i] = &lockedBuf{}
		cfg.Logger = slog.New(slog.NewJSONHandler(logs[i], nil))
	})
	defer tf.stop()
	req := testSolveRequest(t)
	home, _, non := tf.roles(req)

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", tf.urls[non]+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := tf.client.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded solve = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Bufferkit-Trace"); got != traceID {
		t.Fatalf("X-Bufferkit-Trace = %q, want the inbound trace id %q", got, traceID)
	}

	// Origin: the same trace id, carrying the forward spans.
	origin := tf.findTrace(t, non, traceID, "peer_forward")
	var sawCall bool
	for _, sp := range origin.Spans {
		if sp.Name == "peer_call" {
			sawCall = true
		}
	}
	if !sawCall {
		t.Errorf("origin trace has no peer_call span: %+v", origin.Spans)
	}
	if origin.Attrs["forwarded"] != true {
		t.Errorf("origin trace attrs = %v, want forwarded=true", origin.Attrs)
	}

	// Home: the engine ran under the same trace id.
	tf.findTrace(t, home, traceID, "engine_run")

	// Both nodes' request-summary log lines quote the id.
	for _, i := range []int{non, home} {
		deadline := time.Now().Add(5 * time.Second)
		for !strings.Contains(logs[i].String(), traceID) {
			if time.Now().After(deadline) {
				t.Fatalf("node %d request log never mentioned trace %s:\n%s",
					i, traceID, logs[i].String())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestFleetHedgeSharesTrace: with the hedge timer at its floor the
// forwarded solve races home and replica; both arms span under the
// origin's single trace — same trace id, distinct span ids — so the race
// is reconstructible from one /debug/traces entry.
func TestFleetHedgeSharesTrace(t *testing.T) {
	tf := startTestFleet(t, 3, nil, func(i int, cfg *Config) {
		cfg.Fleet.HedgeAfter = time.Nanosecond
	})
	defer tf.stop()
	req := testSolveRequest(t)
	_, _, non := tf.roles(req)

	status, b := tf.do(t, "POST", non, "/v1/solve", req, nil)
	if status != http.StatusOK {
		t.Fatalf("hedged solve = %d: %s", status, b)
	}
	if got := tf.metricAt(t, non, "fleet_hedges"); got < 1 {
		t.Fatalf("fleet_hedges = %v, the 1ns hedge timer never fired", got)
	}

	traces := tf.tracesAt(t, non)
	var hedged *obs.TraceJSON
	for i := range traces {
		if traces[i].Attrs["hedged"] == true {
			hedged = &traces[i]
			break
		}
	}
	if hedged == nil {
		t.Fatalf("no hedged trace in the origin ring (%d traces)", len(traces))
	}
	spanIDs := map[string]string{} // name → span id
	for _, sp := range hedged.Spans {
		if sp.Name == "peer_call" || sp.Name == "hedge_attempt" {
			spanIDs[sp.Name] = sp.Span
		}
	}
	if len(spanIDs) != 2 {
		t.Fatalf("want peer_call + hedge_attempt spans in one trace, got %v", hedged.Spans)
	}
	if spanIDs["peer_call"] == spanIDs["hedge_attempt"] {
		t.Fatalf("hedge arms share span id %s", spanIDs["peer_call"])
	}
}
