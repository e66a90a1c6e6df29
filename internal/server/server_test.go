package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bufferkit"
)

// readTestdata loads a repository testdata file as a string payload.
func readTestdata(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// netText renders a generated tree as .net payload text.
func netText(t testing.TB, tr *bufferkit.Tree, name string, drv bufferkit.Driver) string {
	t.Helper()
	var buf bytes.Buffer
	if err := bufferkit.WriteNet(&buf, &bufferkit.Net{Name: name, Tree: tr, Driver: drv}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// post sends body as JSON to the handler and returns the recorded reply.
func post(t testing.TB, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// decodeInto decodes a recorded JSON body.
func decodeInto(t testing.TB, rec *httptest.ResponseRecorder, dst any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), dst); err != nil {
		t.Fatalf("bad JSON body: %v\n%s", err, rec.Body.String())
	}
}

// metricsMap fetches GET /metrics as raw JSON values. Values stay raw
// because the map mixes numbers (counters), strings (go_version) and
// objects (solve_latency_ms).
func metricsMap(t testing.TB, h http.Handler) map[string]json.RawMessage {
	t.Helper()
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, rec.Body.String())
	}
	return m
}

// metric fetches one numeric counter from GET /metrics.
func metric(t testing.TB, h http.Handler, name string) int64 {
	t.Helper()
	m := metricsMap(t, h)
	v, ok := m[name]
	if !ok {
		t.Fatalf("metric %q missing in /metrics", name)
	}
	var n json.Number
	if err := json.Unmarshal(v, &n); err != nil {
		t.Fatalf("metric %q = %s: %v", name, v, err)
	}
	f, err := n.Float64()
	if err != nil {
		t.Fatalf("metric %q = %q: %v", name, n, err)
	}
	return int64(f)
}

// checkNoGoroutineLeak records the goroutine count and returns a function
// that fails the test if the count has not returned to (near) baseline.
func checkNoGoroutineLeak(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC() // nudge finished goroutines to exit
			if n := runtime.NumGoroutine(); n <= before {
				return
			} else if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, n, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestSolveHappyPath(t *testing.T) {
	h := New(Config{}).Handler()
	req := solveRequest{Net: readTestdata(t, "line.net"), Library: readTestdata(t, "lib8.buf")}
	rec := post(t, h, "/v1/solve", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp solveResponse
	decodeInto(t, rec, &resp)
	if resp.Net != "line" || resp.Algorithm != "new" || resp.Cached {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Buffers <= 0 || len(resp.Placement) != resp.Buffers {
		t.Fatalf("placement inconsistent: %+v", resp)
	}
	// Cross-check the reported slack against a direct Solver run.
	net, err := bufferkit.ParseNet(strings.NewReader(req.Net))
	if err != nil {
		t.Fatal(err)
	}
	lib, err := bufferkit.ParseLibrary(strings.NewReader(req.Library))
	if err != nil {
		t.Fatal(err)
	}
	solver, err := bufferkit.NewSolver(bufferkit.WithLibrary(lib), bufferkit.WithDriver(net.Driver))
	if err != nil {
		t.Fatal(err)
	}
	defer solver.Close()
	want, err := solver.Run(context.Background(), net.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Slack != want.Slack {
		t.Fatalf("server slack %v != solver slack %v", resp.Slack, want.Slack)
	}
	if resp.Stats == nil {
		t.Fatal("stats missing with default options")
	}
}

// TestSolveCacheHit: the second identical request is served from the LRU
// cache with no engine run — asserted through the expvar counters.
func TestSolveCacheHit(t *testing.T) {
	h := New(Config{}).Handler()
	req := solveRequest{Net: readTestdata(t, "line.net"), Library: readTestdata(t, "lib8.buf")}

	first := post(t, h, "/v1/solve", req)
	if first.Code != http.StatusOK {
		t.Fatalf("first solve: %d %s", first.Code, first.Body.String())
	}
	if runs := metric(t, h, "engine_runs"); runs != 1 {
		t.Fatalf("engine_runs after first solve = %d, want 1", runs)
	}

	second := post(t, h, "/v1/solve", req)
	if second.Code != http.StatusOK {
		t.Fatalf("second solve: %d %s", second.Code, second.Body.String())
	}
	var warm, cold solveResponse
	decodeInto(t, first, &cold)
	decodeInto(t, second, &warm)
	if !warm.Cached || cold.Cached {
		t.Fatalf("cached flags: first %v second %v", cold.Cached, warm.Cached)
	}
	if warm.Slack != cold.Slack || warm.Buffers != cold.Buffers {
		t.Fatalf("cache returned a different result: %+v vs %+v", warm, cold)
	}
	if runs := metric(t, h, "engine_runs"); runs != 1 {
		t.Fatalf("engine_runs after cache hit = %d, want still 1 (no engine run)", runs)
	}
	if hits := metric(t, h, "cache_hits"); hits != 1 {
		t.Fatalf("cache_hits = %d, want 1", hits)
	}
	// Different options must miss: same payload, different algorithm.
	req.Algorithm = bufferkit.AlgoLillis
	third := post(t, h, "/v1/solve", req)
	if third.Code != http.StatusOK {
		t.Fatalf("lillis solve: %d %s", third.Code, third.Body.String())
	}
	if runs := metric(t, h, "engine_runs"); runs != 2 {
		t.Fatalf("engine_runs after option change = %d, want 2", runs)
	}
}

func TestSolveMalformedPayloads(t *testing.T) {
	h := New(Config{}).Handler()
	lib := readTestdata(t, "lib8.buf")
	net := readTestdata(t, "line.net")

	cases := []struct {
		name      string
		body      any
		raw       string
		status    int
		field     string
		hasVertex bool
	}{
		{name: "invalid JSON", raw: "{not json", status: 400},
		{name: "empty net", body: solveRequest{Net: "", Library: lib}, status: 400, field: "net"},
		{name: "garbage net", body: solveRequest{Net: "frobnicate all", Library: lib}, status: 400, field: "net"},
		{name: "garbage library", body: solveRequest{Net: net, Library: "buffer oops"}, status: 400, field: "library"},
		{name: "unknown algorithm", body: solveRequest{Net: net, Library: lib,
			solveOptions: solveOptions{Algorithm: "nope"}}, status: 400, field: "algorithm"},
		{name: "unknown prune", body: solveRequest{Net: net, Library: lib,
			solveOptions: solveOptions{Prune: "nope"}}, status: 400, field: "prune"},
		{name: "removed destructive prune", body: solveRequest{Net: net, Library: lib,
			solveOptions: solveOptions{Prune: "destructive"}}, status: 400, field: "prune"},
		{name: "negative max_cost", body: solveRequest{Net: net, Library: lib,
			solveOptions: solveOptions{Algorithm: bufferkit.AlgoCostSlack, MaxCost: -3}}, status: 400, field: "max_cost"},
		{name: "negative timeout", body: solveRequest{Net: net, Library: lib,
			solveOptions: solveOptions{TimeoutMs: -5}}, status: 400, field: "timeout_ms"},
		{name: "unknown backend", body: solveRequest{Net: net, Library: lib,
			solveOptions: solveOptions{Backend: "bogus"}}, status: 400, field: "backend"},
		{name: "removed core algorithm", body: solveRequest{Net: net, Library: lib,
			solveOptions: solveOptions{Algorithm: "core"}}, status: 400, field: "algorithm"},
		{name: "vanginneken multi-type library", body: solveRequest{Net: net, Library: lib,
			solveOptions: solveOptions{Algorithm: bufferkit.AlgoVanGinneken}}, status: 400, field: "library"},
		{name: "non-finite rat", status: 400, field: "RAT", hasVertex: true,
			body: solveRequest{Library: lib,
				Net: "node n1 parent src res 0.1 cap 5 buffer\nsink s1 parent n1 res 0.1 cap 5 load 10 rat NaN\n"}},
		{name: "negative sink without inverters", status: 400, field: "polarity", hasVertex: true,
			body: solveRequest{Library: lib,
				Net: "node n1 parent src res 0.1 cap 5 buffer\nsink s1 parent n1 res 0.1 cap 5 load 10 rat 1000 neg\n"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rec *httptest.ResponseRecorder
			if tc.raw != "" {
				req := httptest.NewRequest("POST", "/v1/solve", strings.NewReader(tc.raw))
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, req)
			} else {
				rec = post(t, h, "/v1/solve", tc.body)
			}
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body.String())
			}
			var er errorResponse
			decodeInto(t, rec, &er)
			if er.Error == "" {
				t.Fatal("error body missing the error message")
			}
			if er.Field != tc.field {
				t.Fatalf("error field %q, want %q (%s)", er.Field, tc.field, rec.Body.String())
			}
			if tc.hasVertex && er.Vertex == nil {
				t.Fatalf("expected vertex detail in %s", rec.Body.String())
			}
		})
	}
}

// TestSolveInfeasible: a polarity-unsatisfiable net (negative sink, no
// legal position for the inverter) maps to 422.
func TestSolveInfeasible(t *testing.T) {
	h := New(Config{}).Handler()
	var lb bytes.Buffer
	if err := bufferkit.WriteLibrary(&lb, bufferkit.GenerateLibraryWithInverters(4)); err != nil {
		t.Fatal(err)
	}
	rec := post(t, h, "/v1/solve", solveRequest{
		Net:     "sink s1 parent src res 0.1 cap 5 load 10 rat 1000 neg\n",
		Library: lb.String(),
	})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body.String())
	}
}

// TestSolveDeadline: a 1 ms budget on a large net aborts mid-run and maps
// to 504 Gateway Timeout. The net is sized to solve in ~100 ms so the
// request deadline reliably fires first even with coarse kernel timers.
func TestSolveDeadline(t *testing.T) {
	h := New(Config{}).Handler()
	tr, err := bufferkit.IndustrialNet(500, 40000, 7)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, h, "/v1/solve", solveRequest{
		Net:          netText(t, tr, "huge", bufferkit.Driver{R: 0.2, K: 15}),
		Library:      readTestdata(t, "lib8.buf"),
		solveOptions: solveOptions{TimeoutMs: 1},
	})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	var er errorResponse
	decodeInto(t, rec, &er)
	if !strings.Contains(er.Error, "canceled") {
		t.Fatalf("error %q does not mention cancellation", er.Error)
	}
}

// TestTimeoutClampsWithoutOverflow: a timeout_ms whose nanosecond value
// overflows int64 clamps to MaxTimeout and solves (it used to wrap negative
// and answer an instant 504); a negative one is a 400 naming the field. Both
// on /v1/solve and /v1/batch.
func TestTimeoutClampsWithoutOverflow(t *testing.T) {
	srv := New(Config{})
	if got := srv.timeout(solveOptions{TimeoutMs: 10_000_000_000_000}); got != srv.cfg.MaxTimeout {
		t.Fatalf("huge timeout resolved to %v, want MaxTimeout %v", got, srv.cfg.MaxTimeout)
	}
	h := srv.Handler()
	net, lib := readTestdata(t, "line.net"), readTestdata(t, "lib8.buf")
	for _, tc := range []struct {
		ms     int
		status int
	}{{10_000_000_000_000, http.StatusOK}, {-5, http.StatusBadRequest}} {
		opts := solveOptions{TimeoutMs: tc.ms}
		solve := post(t, h, "/v1/solve", solveRequest{Net: net, Library: lib, solveOptions: opts})
		batch := post(t, h, "/v1/batch", batchRequest{Library: lib, Nets: []string{net}, solveOptions: opts})
		for _, rec := range []*httptest.ResponseRecorder{solve, batch} {
			if rec.Code != tc.status {
				t.Fatalf("timeout_ms=%d: status %d, want %d: %s", tc.ms, rec.Code, tc.status, rec.Body.String())
			}
		}
		if tc.status == http.StatusOK {
			if lines := decodeBatch(t, batch.Body); len(lines) != 1 || lines[0].Result == nil {
				t.Fatalf("timeout_ms=%d: batch lines %+v", tc.ms, lines)
			}
			continue
		}
		var er errorResponse
		decodeInto(t, batch, &er)
		if er.Field != "timeout_ms" {
			t.Fatalf("batch error field %q, want timeout_ms", er.Field)
		}
	}
}

// decodeBatch splits an NDJSON body into lines.
func decodeBatch(t testing.TB, body io.Reader) []batchLine {
	t.Helper()
	var lines []batchLine
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l batchLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestBatchOrdered(t *testing.T) {
	h := New(Config{}).Handler()
	line := readTestdata(t, "line.net")
	random12 := readTestdata(t, "random12.net")
	req := batchRequest{
		Library: readTestdata(t, "lib8.buf"),
		Nets:    []string{line, random12, line},
		Ordered: true,
	}
	rec := post(t, h, "/v1/batch", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	lines := decodeBatch(t, rec.Body)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), rec.Body.String())
	}
	for i, l := range lines {
		if l.Index != i {
			t.Fatalf("line %d has index %d; ordered batch must be in input order", i, l.Index)
		}
		if l.Error != "" || l.Result == nil {
			t.Fatalf("line %d: %+v", i, l)
		}
	}
	// Nets 0 and 2 are byte-identical: same slack, and the duplicate is
	// either solved once more or served from the cache — never divergent.
	if lines[0].Result.Slack != lines[2].Result.Slack {
		t.Fatalf("duplicate nets disagree: %v vs %v", lines[0].Result.Slack, lines[2].Result.Slack)
	}
	if lines[0].Result.Net != "line" || lines[1].Result.Net != "random12" {
		t.Fatalf("net names wrong: %q, %q", lines[0].Result.Net, lines[1].Result.Net)
	}
}

// TestBatchCacheHits: a second identical batch is served entirely from the
// cache — engine_runs does not move.
func TestBatchCacheHits(t *testing.T) {
	h := New(Config{}).Handler()
	req := batchRequest{
		Library: readTestdata(t, "lib8.buf"),
		Nets:    []string{readTestdata(t, "line.net"), readTestdata(t, "random12.net")},
	}
	if rec := post(t, h, "/v1/batch", req); rec.Code != http.StatusOK {
		t.Fatalf("first batch: %d", rec.Code)
	}
	runs := metric(t, h, "engine_runs")
	rec := post(t, h, "/v1/batch", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("second batch: %d", rec.Code)
	}
	for _, l := range decodeBatch(t, rec.Body) {
		if l.Result == nil || !l.Result.Cached {
			t.Fatalf("expected every line cached, got %+v", l)
		}
	}
	if after := metric(t, h, "engine_runs"); after != runs {
		t.Fatalf("engine_runs moved %d → %d on a fully cached batch", runs, after)
	}
}

func TestBatchMalformed(t *testing.T) {
	h := New(Config{}).Handler()
	lib := readTestdata(t, "lib8.buf")
	t.Run("empty nets", func(t *testing.T) {
		rec := post(t, h, "/v1/batch", batchRequest{Library: lib})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", rec.Code)
		}
	})
	t.Run("bad net names its index", func(t *testing.T) {
		rec := post(t, h, "/v1/batch", batchRequest{
			Library: lib,
			Nets:    []string{readTestdata(t, "line.net"), "garbage here"},
		})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.String())
		}
		var er errorResponse
		decodeInto(t, rec, &er)
		if !strings.Contains(er.Error, "net 1") {
			t.Fatalf("error %q does not name the offending net index", er.Error)
		}
	})
	t.Run("over batch limit", func(t *testing.T) {
		small := New(Config{MaxBatchNets: 2}).Handler()
		rec := post(t, small, "/v1/batch", batchRequest{Library: lib, Nets: []string{"a", "b", "c"}})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", rec.Code)
		}
	})
}

// TestBatchStreamNoGoroutineLeak drives the NDJSON stream over a real
// network connection and disconnects mid-stream: the handler's workers
// must all exit.
func TestBatchStreamNoGoroutineLeak(t *testing.T) {
	check := checkNoGoroutineLeak(t)
	srv := httptest.NewServer(New(Config{}).Handler())
	defer srv.Close()

	// Large-ish nets so the batch is still streaming when we disconnect.
	nets := make([]string, 16)
	for i := range nets {
		tr := bufferkit.TwoPinNet(50000, 600+i, 10, 1e6, bufferkit.PaperWire())
		nets[i] = netText(t, tr, fmt.Sprintf("n%d", i), bufferkit.Driver{R: 0.2, K: 15})
	}
	body, err := json.Marshal(batchRequest{Library: readTestdata(t, "lib8.buf"), Nets: nets})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one line, then hang up.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first NDJSON line: %v", err)
	}
	cancel()
	resp.Body.Close()

	// A full, cleanly drained batch must not leak either.
	resp2, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()

	srv.CloseClientConnections()
	srv.Close() // idempotent; waits for outstanding handlers before check
	check()
}

// TestConcurrentSolves64 is the acceptance bar: 64 concurrent /v1/solve
// requests against one server under -race, every reply correct, no
// goroutine leaks afterwards.
func TestConcurrentSolves64(t *testing.T) {
	check := checkNoGoroutineLeak(t)
	s := New(Config{MaxConcurrent: 8})
	h := s.Handler()
	lib := readTestdata(t, "lib8.buf")

	const n = 64
	// Distinct nets (different RATs) so every request takes the full
	// parse+solve path under contention for the 8 engine slots.
	reqs := make([]solveRequest, n)
	for i := range reqs {
		tr := bufferkit.TwoPinNet(10000, 24, 10, 1000+float64(i), bufferkit.PaperWire())
		reqs[i] = solveRequest{
			Net:     netText(t, tr, fmt.Sprintf("net%d", i), bufferkit.Driver{R: 0.2, K: 15}),
			Library: lib,
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(t, h, "/v1/solve", reqs[i])
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("req %d: status %d: %s", i, rec.Code, rec.Body.String())
				return
			}
			var resp solveResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				errs <- fmt.Errorf("req %d: %v", i, err)
				return
			}
			if resp.Buffers <= 0 {
				errs <- fmt.Errorf("req %d: no buffers placed: %+v", i, resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if runs := metric(t, h, "engine_runs"); runs != n {
		t.Fatalf("engine_runs = %d, want %d", runs, n)
	}
	if inFlight := metric(t, h, "in_flight_runs"); inFlight != 0 {
		t.Fatalf("in_flight_runs = %d after drain, want 0", inFlight)
	}
	check()
}

func TestAlgorithmsEndpoint(t *testing.T) {
	h := New(Config{}).Handler()
	rec := get(t, h, "/v1/algorithms")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp struct {
		Algorithms []bufferkit.AlgorithmInfo `json:"algorithms"`
	}
	decodeInto(t, rec, &resp)
	names := map[string]string{}
	for _, a := range resp.Algorithms {
		names[a.Name] = a.Description
	}
	for _, want := range []string{"new", "lillis", "vanginneken", "costslack"} {
		desc, ok := names[want]
		if !ok {
			t.Fatalf("algorithm %q missing from %v", want, names)
		}
		if desc == "" {
			t.Fatalf("algorithm %q has no description", want)
		}
	}
}

func TestHealthz(t *testing.T) {
	rec := get(t, New(Config{}).Handler(), "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body.String())
	}
}

func TestMetricsShape(t *testing.T) {
	h := New(Config{}).Handler()
	for _, name := range []string{
		"solve_requests", "batch_requests", "engine_runs", "cache_hits",
		"cache_misses", "cache_len", "http_errors", "in_flight_runs", "max_concurrent",
		"panics_total", "singleflight_shared", "shed_total", "shed_queue_full",
		"shed_deadline", "shed_queue_timeout", "queue_depth", "admission_wait_ns",
		"max_queue", "solve_ewma_ms", "draining", "uptime_seconds",
	} {
		metric(t, h, name) // fails the test if absent or non-numeric
	}
	m := metricsMap(t, h)
	var goVersion string
	if err := json.Unmarshal(m["go_version"], &goVersion); err != nil || !strings.HasPrefix(goVersion, "go") {
		t.Fatalf("go_version = %s (%v), want a go version string", m["go_version"], err)
	}
	var hist map[string]json.Number
	if err := json.Unmarshal(m["solve_latency_ms"], &hist); err != nil {
		t.Fatalf("solve_latency_ms = %s: %v", m["solve_latency_ms"], err)
	}
	for _, key := range []string{"count", "sum_ms", "le_1", "le_5000", "le_inf"} {
		if _, ok := hist[key]; !ok {
			t.Fatalf("solve_latency_ms missing %q: %v", key, hist)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := New(Config{}).Handler()
	rec := get(t, h, "/v1/solve")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve = %d, want 405", rec.Code)
	}
}

func TestBodyTooLarge(t *testing.T) {
	h := New(Config{MaxBodyBytes: 128}).Handler()
	rec := post(t, h, "/v1/solve", solveRequest{Net: strings.Repeat("x", 1024)})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
	var er errorResponse
	decodeInto(t, rec, &er)
	if !strings.Contains(er.Error, "128") {
		t.Fatalf("413 body %q does not name the limit", er.Error)
	}
	// The batch endpoint shares the limiter.
	rec = post(t, h, "/v1/batch", batchRequest{Library: strings.Repeat("x", 1024)})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch status %d, want 413", rec.Code)
	}
}

// TestSolveBackendField: the backend request field is a validated no-op.
// "list" and "soa" (and "" / "default") return results bit-identical to a
// request without the field and share its cache entry; any other value is
// a 400 naming the field, even when the rest of the request is cached.
func TestSolveBackendField(t *testing.T) {
	checkIgnoredField(t, "backend", func(o *solveOptions, v string) { o.Backend = v },
		[]string{"default", "list", "soa"}, []string{"bogus"})
}

// TestSolvePruneField: "prune" is a validated no-op. "transient" is
// bit-identical to no field and shares its cache entry; the removed
// "destructive" mode and unknown values are a 400 even on a cache hit.
func TestSolvePruneField(t *testing.T) {
	checkIgnoredField(t, "prune", func(o *solveOptions, v string) { o.Prune = v },
		[]string{"transient"}, []string{"destructive", "nope"})
}

// checkIgnoredField asserts the contract of a request field kept only for
// compatibility: every accepted value yields the response of a request
// without the field and hits its cache entry, and every rejected value is
// a 400 naming the field even when the rest of the payload is cached.
func checkIgnoredField(t *testing.T, field string, set func(*solveOptions, string), accepted, rejected []string) {
	t.Helper()
	netT, libT := readTestdata(t, "line.net"), readTestdata(t, "lib8.buf")
	request := func(h http.Handler, v string) *httptest.ResponseRecorder {
		req := solveRequest{Net: netT, Library: libT}
		set(&req.solveOptions, v)
		return post(t, h, "/v1/solve", req)
	}
	solve := func(h http.Handler, v string) solveResponse {
		t.Helper()
		rec := request(h, v)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s=%q: status %d: %s", field, v, rec.Code, rec.Body.String())
		}
		var resp solveResponse
		decodeInto(t, rec, &resp)
		resp.ElapsedMs = 0 // wall time; everything else must match exactly
		return resp
	}

	uncached := New(Config{CacheEntries: -1}).Handler()
	want := solve(uncached, "")
	for _, v := range accepted {
		if got := solve(uncached, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s=%q changed the result:\n got %+v\nwant %+v", field, v, got, want)
		}
	}

	cached := New(Config{}).Handler()
	solve(cached, "")
	for _, v := range accepted {
		if !solve(cached, v).Cached {
			t.Fatalf("%s=%q missed the cache entry of the request without it", field, v)
		}
	}
	for _, v := range rejected {
		rec := request(cached, v)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s=%q on a cached request: status %d", field, v, rec.Code)
		}
		var errResp errorResponse
		decodeInto(t, rec, &errResp)
		if errResp.Field != field {
			t.Fatalf("%s=%q: error field = %q, want %s", field, v, errResp.Field, field)
		}
	}
}
