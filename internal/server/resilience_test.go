package server

// Server-level tests for the resilience tier: drain mode, panic
// containment, load shedding with Retry-After, singleflight collapse,
// and the batch terminal-error record. Engine faults are injected through
// internal/chaoskit's registered chaos algorithms, so everything here
// exercises the real HTTP surface.

import (
	"bufferkit/internal/api"

	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"bufferkit/internal/chaoskit"
)

func init() { chaoskit.RegisterAlgorithms() }

// waitForMetric polls a counter until it reaches want.
func waitForMetric(t testing.TB, h http.Handler, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for metric(t, h, name) != want {
		if time.Now().After(deadline) {
			t.Fatalf("metric %s = %d never reached %d", name, metric(t, h, name), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadyzDrain: /readyz flips to 503 in drain mode while /healthz and
// the solve path keep working, so a load balancer can divert traffic
// without killing in-flight work.
func TestReadyzDrain(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz before drain = %d, want 200", rec.Code)
	}
	s.SetDraining(true)
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", rec.Code)
	}
	if got := metric(t, h, "draining"); got != 1 {
		t.Fatalf("draining metric = %d, want 1", got)
	}
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200 (liveness is not readiness)", rec.Code)
	}
	// Already-accepted work still completes during the drain window.
	rec := post(t, h, "/v1/solve", api.SolveRequest{
		Net: readTestdata(t, "line.net"), Library: readTestdata(t, "lib8.buf")})
	if rec.Code != http.StatusOK {
		t.Fatalf("solve while draining = %d, want 200", rec.Code)
	}
	s.SetDraining(false)
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after drain lifted = %d, want 200", rec.Code)
	}
}

// TestPanicRecovery: an engine panic maps to a 500 with panics_total
// incremented, and the server keeps serving afterwards.
func TestPanicRecovery(t *testing.T) {
	log.SetOutput(io.Discard) // silence the expected panic stack
	defer log.SetOutput(os.Stderr)
	h := New(Config{}).Handler()
	req := api.SolveRequest{
		Net:          readTestdata(t, "line.net"),
		Library:      readTestdata(t, "lib8.buf"),
		SolveOptions: api.SolveOptions{Algorithm: chaoskit.AlgoPanic},
	}
	rec := post(t, h, "/v1/solve", req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking solve = %d, want 500: %s", rec.Code, rec.Body.String())
	}
	var er api.ErrorBody
	decodeInto(t, rec, &er)
	if !strings.Contains(er.Error, "internal error") {
		t.Fatalf("500 body %q does not say internal error", er.Error)
	}
	if got := metric(t, h, "panics_total"); got != 1 {
		t.Fatalf("panics_total = %d, want 1", got)
	}
	// The server is still alive and correct after the panic.
	req.Algorithm = ""
	if rec := post(t, h, "/v1/solve", req); rec.Code != http.StatusOK {
		t.Fatalf("solve after panic = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if got := metric(t, h, "panics_total"); got != 1 {
		t.Fatalf("panics_total after healthy solve = %d, want still 1", got)
	}
}

// gatedSolve posts a chaos-gate solve in a goroutine and returns a channel
// with the recorder. The caller must release the gate.
func gatedSolve(t *testing.T, h http.Handler, req api.SolveRequest) <-chan int {
	t.Helper()
	done := make(chan int, 1)
	go func() { done <- post(t, h, "/v1/solve", req).Code }()
	return done
}

// TestShedQueueFull: with no queue configured, a second request against a
// single busy slot is shed immediately with 429 + Retry-After.
func TestShedQueueFull(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: -1})
	h := s.Handler()
	release := chaoskit.HoldGate()
	defer release()
	lib := readTestdata(t, "lib8.buf")
	blocked := gatedSolve(t, h, api.SolveRequest{
		Net: readTestdata(t, "line.net"), Library: lib,
		SolveOptions: api.SolveOptions{Algorithm: chaoskit.AlgoGate}})
	waitForMetric(t, h, "in_flight_runs", 1)

	rec := post(t, h, "/v1/solve", api.SolveRequest{
		Net: readTestdata(t, "random12.net"), Library: lib})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overload solve = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 reply is missing the Retry-After header")
	}
	if got := metric(t, h, "shed_queue_full"); got != 1 {
		t.Fatalf("shed_queue_full = %d, want 1", got)
	}
	if got := metric(t, h, "shed_total"); got != 1 {
		t.Fatalf("shed_total = %d, want 1", got)
	}
	release()
	if code := <-blocked; code != http.StatusOK {
		t.Fatalf("gated solve finished with %d, want 200", code)
	}
}

// TestCanceledWhileQueuedMaps504: a request whose own deadline fires while
// it waits for admission is a 504 (the deadline verdict), not a 429 — the
// server never refused the work — and is counted on admission_canceled
// rather than folded into the admission-wait average.
func TestCanceledWhileQueuedMaps504(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: 4})
	h := s.Handler()
	release := chaoskit.HoldGate()
	defer release()
	lib := readTestdata(t, "lib8.buf")
	blocked := gatedSolve(t, h, api.SolveRequest{
		Net: readTestdata(t, "line.net"), Library: lib,
		SolveOptions: api.SolveOptions{Algorithm: chaoskit.AlgoGate}})
	waitForMetric(t, h, "in_flight_runs", 1)

	// No EWMA observation yet, so deadline shedding stays out of the way:
	// the request queues and its 5ms budget expires there.
	rec := post(t, h, "/v1/solve", api.SolveRequest{
		Net: readTestdata(t, "random12.net"), Library: lib,
		SolveOptions: api.SolveOptions{TimeoutMs: 5}})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("canceled-in-queue solve = %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if got := metric(t, h, "admission_canceled"); got != 1 {
		t.Fatalf("admission_canceled = %d, want 1", got)
	}
	if got := metric(t, h, "shed_total"); got != 0 {
		t.Fatalf("shed_total = %d, want 0 — cancellation is not shedding", got)
	}
	if got := metric(t, h, "admission_wait_ns"); got != 0 {
		t.Fatalf("admission_wait_ns = %d, want 0 — canceled waits must not skew the average", got)
	}
	release()
	if code := <-blocked; code != http.StatusOK {
		t.Fatalf("gated solve finished with %d, want 200", code)
	}
}

// TestShedDeadline: once the EWMA knows how long solves take, a request
// whose remaining deadline cannot cover it is rejected without queueing.
func TestShedDeadline(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	h := s.Handler()
	lib := readTestdata(t, "lib8.buf")
	// Warm the EWMA with a ~60ms solve.
	chaoskit.SetSlowDelay(60 * time.Millisecond)
	defer chaoskit.SetSlowDelay(50 * time.Millisecond)
	rec := post(t, h, "/v1/solve", api.SolveRequest{
		Net: readTestdata(t, "line.net"), Library: lib,
		SolveOptions: api.SolveOptions{Algorithm: chaoskit.AlgoSlow}})
	if rec.Code != http.StatusOK {
		t.Fatalf("warmup solve = %d: %s", rec.Code, rec.Body.String())
	}
	// Occupy the only slot, then ask for a solve with a 1ms budget: the
	// admission controller must fast-fail it instead of queueing a request
	// that cannot finish in time.
	release := chaoskit.HoldGate()
	defer release()
	blocked := gatedSolve(t, h, api.SolveRequest{
		Net: readTestdata(t, "random12.net"), Library: lib,
		SolveOptions: api.SolveOptions{Algorithm: chaoskit.AlgoGate}})
	waitForMetric(t, h, "in_flight_runs", 1)

	rec = post(t, h, "/v1/solve", api.SolveRequest{
		Net: readTestdata(t, "line.net"), Library: lib,
		SolveOptions: api.SolveOptions{TimeoutMs: 1}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("doomed solve = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if got := metric(t, h, "shed_deadline"); got != 1 {
		t.Fatalf("shed_deadline = %d, want 1", got)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive hint from the warm EWMA", ra)
	}
	release()
	if code := <-blocked; code != http.StatusOK {
		t.Fatalf("gated solve finished with %d, want 200", code)
	}
}

// TestShedQueueTimeout: a queued request is converted into a fast 429
// after Config.QueueTimeout even though its own deadline is generous.
func TestShedQueueTimeout(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueTimeout: 20 * time.Millisecond})
	h := s.Handler()
	lib := readTestdata(t, "lib8.buf")
	release := chaoskit.HoldGate()
	defer release()
	blocked := gatedSolve(t, h, api.SolveRequest{
		Net: readTestdata(t, "line.net"), Library: lib,
		SolveOptions: api.SolveOptions{Algorithm: chaoskit.AlgoGate}})
	waitForMetric(t, h, "in_flight_runs", 1)

	rec := post(t, h, "/v1/solve", api.SolveRequest{
		Net: readTestdata(t, "random12.net"), Library: lib})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queued solve = %d, want 429 after the queue timeout: %s", rec.Code, rec.Body.String())
	}
	if got := metric(t, h, "shed_queue_timeout"); got != 1 {
		t.Fatalf("shed_queue_timeout = %d, want 1", got)
	}
	if metric(t, h, "admission_wait_ns") <= 0 {
		t.Fatal("admission_wait_ns not recorded for the timed-out waiter")
	}
	release()
	if code := <-blocked; code != http.StatusOK {
		t.Fatalf("gated solve finished with %d, want 200", code)
	}
}

// TestSolveSingleflight: N identical concurrent solves run the engine
// exactly once; every caller gets the result, flagged as the leader, a
// coalesced follower, or a cache hit.
func TestSolveSingleflight(t *testing.T) {
	check := checkNoGoroutineLeak(t)
	s := New(Config{MaxConcurrent: 4})
	h := s.Handler()
	req := api.SolveRequest{
		Net: readTestdata(t, "line.net"), Library: readTestdata(t, "lib8.buf"),
		SolveOptions: api.SolveOptions{Algorithm: chaoskit.AlgoGate}}
	release := chaoskit.HoldGate()
	defer release()

	const n = 16
	var wg sync.WaitGroup
	resps := make(chan api.SolveResult, n)
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := post(t, h, "/v1/solve", req)
			if rec.Code != http.StatusOK {
				errc <- fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
				return
			}
			var resp api.SolveResult
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				errc <- err
				return
			}
			resps <- resp
		}()
	}
	// Every request has entered the handler and exactly one engine run is
	// in flight (holding the gate); give the rest a beat to join the
	// flight, then open the gate.
	waitForMetric(t, h, "solve_requests", n)
	waitForMetric(t, h, "in_flight_runs", 1)
	time.Sleep(20 * time.Millisecond)
	release()
	wg.Wait()
	close(resps)
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if runs := metric(t, h, "engine_runs"); runs != 1 {
		t.Fatalf("engine_runs = %d for %d identical concurrent solves, want exactly 1", runs, n)
	}
	var leaders, coalesced, cached int
	for resp := range resps {
		switch {
		case resp.Coalesced:
			coalesced++
		case resp.Cached:
			cached++
		default:
			leaders++
		}
	}
	if leaders != 1 || coalesced+cached != n-1 {
		t.Fatalf("leaders=%d coalesced=%d cached=%d, want 1 leader and %d followers",
			leaders, coalesced, cached, n-1)
	}
	if shared := metric(t, h, "singleflight_shared"); shared != int64(coalesced) {
		t.Fatalf("singleflight_shared = %d, want %d", shared, coalesced)
	}
	check()
}

// TestBatchTerminalErrorRecord: a batch cut short by its deadline ends
// with an Index:-1 error line — the golden shape a client uses to tell a
// truncated stream from a complete one — while a complete batch has none.
func TestBatchTerminalErrorRecord(t *testing.T) {
	h := New(Config{}).Handler()
	lib := readTestdata(t, "lib8.buf")
	chaoskit.SetSlowDelay(200 * time.Millisecond)
	defer chaoskit.SetSlowDelay(50 * time.Millisecond)
	// Distinct nets so nothing is cached; a 50ms budget over 3×200ms of
	// engine time guarantees the deadline fires mid-stream.
	rec := post(t, h, "/v1/batch", api.BatchRequest{
		Library: lib,
		Nets: []string{readTestdata(t, "line.net"), readTestdata(t, "random12.net"),
			readTestdata(t, "line.net") + "# distinct\n"},
		SolveOptions: api.SolveOptions{Algorithm: chaoskit.AlgoSlow, TimeoutMs: 50},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d (the stream had already started; aborts are in-band)", rec.Code)
	}
	lines := decodeBatch(t, rec.Body)
	if len(lines) == 0 {
		t.Fatal("truncated batch produced no lines at all")
	}
	last := lines[len(lines)-1]
	if last.Index != -1 || last.Error == "" {
		t.Fatalf("last line = %+v, want the terminal Index:-1 error record", last)
	}
	if !strings.Contains(last.Error, "canceled") {
		t.Fatalf("terminal error %q does not mention cancellation", last.Error)
	}
	if last.Result != nil {
		t.Fatalf("terminal record carries a result: %+v", last)
	}
	for _, l := range lines[:len(lines)-1] {
		if l.Index < 0 {
			t.Fatalf("terminal record is not last: %+v", lines)
		}
	}

	// Golden shape: the terminal record is exactly {"index":-1,"error":...}.
	var shape map[string]json.RawMessage
	raw, err := json.Marshal(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &shape); err != nil {
		t.Fatal(err)
	}
	if len(shape) != 2 || shape["index"] == nil || shape["error"] == nil {
		t.Fatalf("terminal record shape = %s, want exactly index and error", raw)
	}

	// A complete batch never emits the terminal record.
	rec = post(t, h, "/v1/batch", api.BatchRequest{
		Library: lib,
		Nets:    []string{readTestdata(t, "line.net"), readTestdata(t, "random12.net")},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("complete batch status %d", rec.Code)
	}
	for _, l := range decodeBatch(t, rec.Body) {
		if l.Index < 0 {
			t.Fatalf("complete batch emitted a terminal record: %+v", l)
		}
	}
}

// TestBatchOverloadSheds: a batch arriving at a saturated server with no
// queue is shed as a clean 429 before the NDJSON stream starts.
func TestBatchOverloadSheds(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: -1})
	h := s.Handler()
	lib := readTestdata(t, "lib8.buf")
	release := chaoskit.HoldGate()
	defer release()
	blocked := gatedSolve(t, h, api.SolveRequest{
		Net: readTestdata(t, "line.net"), Library: lib,
		SolveOptions: api.SolveOptions{Algorithm: chaoskit.AlgoGate}})
	waitForMetric(t, h, "in_flight_runs", 1)

	rec := post(t, h, "/v1/batch", api.BatchRequest{
		Library: lib, Nets: []string{readTestdata(t, "random12.net")}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("batch under overload = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 batch reply is missing the Retry-After header")
	}
	release()
	if code := <-blocked; code != http.StatusOK {
		t.Fatalf("gated solve finished with %d, want 200", code)
	}
}
