package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"bufferkit/internal/chaoskit"
	"bufferkit/internal/server"
)

func readTestdata(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile("../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// newTestClient wires a Client to a fresh bufferkitd handler through a
// chaoskit fault transport, with the sleep seam capturing backoff delays
// instead of really sleeping.
func newTestClient(t testing.TB, cfg server.Config, opts ...Option) (*Client, *chaoskit.Transport, *[]time.Duration) {
	t.Helper()
	srv := httptest.NewServer(server.New(cfg).Handler())
	t.Cleanup(srv.Close)
	ft := &chaoskit.Transport{}
	var sleeps []time.Duration
	opts = append([]Option{WithHTTPClient(&http.Client{Transport: ft})}, opts...)
	c, err := New(srv.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	c.sleep = func(_ context.Context, d time.Duration) error {
		sleeps = append(sleeps, d)
		return nil
	}
	return c, ft, &sleeps
}

func TestNewRejectsBadURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "/just/a/path"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted a bad base URL", bad)
		}
	}
}

func TestSolveRoundTrip(t *testing.T) {
	c, ft, _ := newTestClient(t, server.Config{})
	res, err := c.Solve(context.Background(), SolveRequest{
		Net:     readTestdata(t, "line.net"),
		Library: readTestdata(t, "lib8.buf"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Net != "line" || res.Buffers <= 0 || res.Slack == 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Stats == nil || res.Stats.Positions == 0 || res.Stats.BetasGenerated == 0 {
		t.Fatalf("stats = %+v, want the engine's counters", res.Stats)
	}
	if ft.Requests() != 1 {
		t.Fatalf("transport saw %d requests, want 1", ft.Requests())
	}
	// Second identical solve is a cache hit.
	res, err = c.Solve(context.Background(), SolveRequest{
		Net:     readTestdata(t, "line.net"),
		Library: readTestdata(t, "lib8.buf"),
	})
	if err != nil || !res.Cached {
		t.Fatalf("second solve cached=%v err=%v, want a cache hit", res != nil && res.Cached, err)
	}
}

func TestSolveValidationErrorIsTerminal(t *testing.T) {
	c, ft, sleeps := newTestClient(t, server.Config{})
	_, err := c.Solve(context.Background(), SolveRequest{Net: "garbage", Library: "more garbage"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want a 400 APIError", err)
	}
	if apiErr.Field == "" {
		t.Fatalf("APIError did not carry the offending field: %+v", apiErr)
	}
	if ft.Requests() != 1 || len(*sleeps) != 0 {
		t.Fatalf("400 was retried: %d requests, %d sleeps", ft.Requests(), len(*sleeps))
	}
}

// TestRetryHonorsRetryAfter: a 429 with Retry-After overrides the
// computed backoff; the client waits exactly the hinted time.
func TestRetryHonorsRetryAfter(t *testing.T) {
	c, ft, sleeps := newTestClient(t, server.Config{})
	ft.Push(chaoskit.Fault{
		Status: http.StatusTooManyRequests,
		Header: http.Header{"Retry-After": {"3"}},
		Body:   `{"error":"shed"}`,
	})
	res, err := c.Solve(context.Background(), SolveRequest{
		Net:     readTestdata(t, "line.net"),
		Library: readTestdata(t, "lib8.buf"),
	})
	if err != nil || res == nil {
		t.Fatalf("solve after one 429 failed: %v", err)
	}
	if ft.Requests() != 2 {
		t.Fatalf("transport saw %d requests, want 2 (original + one retry)", ft.Requests())
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != 3*time.Second {
		t.Fatalf("sleeps = %v, want exactly the server's 3s Retry-After hint", *sleeps)
	}
}

// TestRetryHonorsRetryAfterDate: RFC 9110 allows Retry-After to be an
// HTTP-date as well as delta-seconds — proxies favor the date form. The
// client converts it against its clock and waits exactly until the date.
func TestRetryHonorsRetryAfterDate(t *testing.T) {
	c, ft, sleeps := newTestClient(t, server.Config{})
	epoch := time.Date(2026, time.August, 7, 12, 0, 0, 0, time.UTC)
	c.now = func() time.Time { return epoch }
	ft.Push(chaoskit.Fault{
		Status: http.StatusServiceUnavailable,
		Header: http.Header{"Retry-After": {epoch.Add(90 * time.Second).Format(http.TimeFormat)}},
		Body:   `{"error":"draining"}`,
	})
	res, err := c.Solve(context.Background(), SolveRequest{
		Net:     readTestdata(t, "line.net"),
		Library: readTestdata(t, "lib8.buf"),
	})
	if err != nil || res == nil {
		t.Fatalf("solve after one dated 503 failed: %v", err)
	}
	if ft.Requests() != 2 {
		t.Fatalf("transport saw %d requests, want 2", ft.Requests())
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != 90*time.Second {
		t.Fatalf("sleeps = %v, want exactly the 90s until the server's Retry-After date", *sleeps)
	}
	// A date in the past (or garbage) is no hint: the computed backoff
	// applies, which for the default policy stays under a second.
	for _, s := range []string{epoch.Add(-time.Hour).Format(http.TimeFormat), "soon"} {
		ft.Push(chaoskit.Fault{
			Status: http.StatusServiceUnavailable,
			Header: http.Header{"Retry-After": {s}},
			Body:   `{"error":"draining"}`,
		})
		*sleeps = (*sleeps)[:0]
		if _, err := c.Solve(context.Background(), SolveRequest{
			Net:     readTestdata(t, "line.net"),
			Library: readTestdata(t, "lib8.buf"),
		}); err != nil {
			t.Fatalf("Retry-After %q: solve failed: %v", s, err)
		}
		if len(*sleeps) != 1 || (*sleeps)[0] <= 0 || (*sleeps)[0] >= time.Second {
			t.Fatalf("Retry-After %q: sleeps = %v, want one computed backoff", s, *sleeps)
		}
	}
}

// TestRetryBacksOffWithJitter: without a server hint, delays follow the
// jittered exponential envelope [base/2·2ⁿ, base·2ⁿ).
func TestRetryBacksOffWithJitter(t *testing.T) {
	c, ft, sleeps := newTestClient(t, server.Config{},
		WithRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 10 * time.Second}))
	ft.Push(chaoskit.Fault{Drop: true}, chaoskit.Fault{Drop: true}, chaoskit.Fault{Drop: true})
	_, err := c.Solve(context.Background(), SolveRequest{
		Net:     readTestdata(t, "line.net"),
		Library: readTestdata(t, "lib8.buf"),
	})
	if err != nil {
		t.Fatalf("solve after three drops failed: %v", err)
	}
	if len(*sleeps) != 3 {
		t.Fatalf("sleeps = %v, want 3 backoffs", *sleeps)
	}
	for i, d := range *sleeps {
		lo := 100 * time.Millisecond << i / 2
		hi := 100 * time.Millisecond << i
		if d < lo || d >= hi {
			t.Fatalf("backoff %d = %v, want in [%v, %v)", i, d, lo, hi)
		}
	}
}

func TestNoRetryOn504(t *testing.T) {
	c, ft, sleeps := newTestClient(t, server.Config{})
	ft.Push(chaoskit.Fault{Status: http.StatusGatewayTimeout, Body: `{"error":"solve canceled: deadline"}`})
	_, err := c.Solve(context.Background(), SolveRequest{
		Net:     readTestdata(t, "line.net"),
		Library: readTestdata(t, "lib8.buf"),
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("err = %v, want the 504 back", err)
	}
	if ft.Requests() != 1 || len(*sleeps) != 0 {
		t.Fatalf("504 was retried: %d requests — the server already declared the work over budget", ft.Requests())
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	c, ft, _ := newTestClient(t, server.Config{},
		WithRetryBudget(0.001, 1),
		WithRetry(RetryPolicy{MaxAttempts: 10}))
	ft.Push(chaoskit.Fault{Drop: true}, chaoskit.Fault{Drop: true}, chaoskit.Fault{Drop: true})
	_, err := c.Solve(context.Background(), SolveRequest{
		Net:     readTestdata(t, "line.net"),
		Library: readTestdata(t, "lib8.buf"),
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if ft.Requests() != 2 {
		t.Fatalf("transport saw %d requests, want 2 (the budget allowed one retry)", ft.Requests())
	}
}

func TestRetryRespectsContext(t *testing.T) {
	c, ft, _ := newTestClient(t, server.Config{})
	c.sleep = sleepCtx // real sleeping so the context can interrupt it
	ft.Push(chaoskit.Fault{Drop: true}, chaoskit.Fault{Drop: true}, chaoskit.Fault{Drop: true})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.Solve(ctx, SolveRequest{
		Net:     readTestdata(t, "line.net"),
		Library: readTestdata(t, "lib8.buf"),
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the caller's deadline to cut the backoff loop", err)
	}
}

func TestBatchStreamCollect(t *testing.T) {
	c, _, _ := newTestClient(t, server.Config{})
	stream, err := c.Batch(context.Background(), BatchRequest{
		Library: readTestdata(t, "lib8.buf"),
		Nets:    []string{readTestdata(t, "line.net"), readTestdata(t, "random12.net")},
		Ordered: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	lines, err := stream.Collect(2)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lines {
		if l == nil || l.Result == nil || l.Error != "" {
			t.Fatalf("line %d = %+v", i, l)
		}
	}
	if lines[0].Result.Net != "line" || lines[1].Result.Net != "random12" {
		t.Fatalf("net names: %q, %q", lines[0].Result.Net, lines[1].Result.Net)
	}
}

// TestBatchTruncationSurfacesNotRetries: the server's terminal Index:-1
// record maps to ErrTruncated and the partially-consumed stream is never
// silently re-run.
func TestBatchTruncationSurfacesNotRetries(t *testing.T) {
	chaoskit.RegisterAlgorithms()
	chaoskit.SetSlowDelay(200 * time.Millisecond)
	defer chaoskit.SetSlowDelay(50 * time.Millisecond)
	c, ft, _ := newTestClient(t, server.Config{})
	stream, err := c.Batch(context.Background(), BatchRequest{
		Library:      readTestdata(t, "lib8.buf"),
		Nets:         []string{readTestdata(t, "line.net"), readTestdata(t, "random12.net")},
		SolveOptions: SolveOptions{Algorithm: chaoskit.AlgoSlow, TimeoutMs: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	for {
		_, err = stream.Next()
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if ft.Requests() != 1 {
		t.Fatalf("transport saw %d requests — a partially consumed stream must never be retried", ft.Requests())
	}
	// The stream stays in its error state.
	if _, err2 := stream.Next(); !errors.Is(err2, ErrTruncated) {
		t.Fatalf("second Next = %v, want the sticky ErrTruncated", err2)
	}
}

// TestHedgedSolve: with hedging armed, a stalled first request is raced
// by a second one and the fast response wins.
func TestHedgedSolve(t *testing.T) {
	var calls atomic.Int64
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if calls.Add(1) == 1 {
			<-stall // first request hangs until the test ends
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"net":"line","algorithm":"new","slack":42,"buffers":1,"placement":{"v1":"b0"}}`)
	}))
	defer srv.Close()
	defer close(stall) // LIFO: unblock the stalled handler before Close waits on it
	c, err := New(srv.URL, WithHedging(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := c.Solve(context.Background(), SolveRequest{Net: "x", Library: "y"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slack != 42 {
		t.Fatalf("result = %+v", res)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2 (original + hedge)", calls.Load())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedged solve took %v — the hedge did not win", elapsed)
	}
}

// TestHedgedSolveVerdictAndFailover: with hedging armed, a 400 is the
// server's verdict — it ends the race at once, even while the hedge arm is
// still waiting on a stalled server — and a primary arm that fails with a
// retryable 503 hands over to the hedge immediately instead of waiting out
// the hedge delay.
func TestHedgedSolveVerdictAndFailover(t *testing.T) {
	t.Run("400 ends the race", func(t *testing.T) {
		var calls atomic.Int64
		stall := make(chan struct{})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			if calls.Add(1) > 1 {
				<-stall // the hedge arm never answers
				return
			}
			time.Sleep(40 * time.Millisecond) // past the hedge delay
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprint(w, `{"error":"bad net","field":"net"}`)
		}))
		defer srv.Close()
		defer close(stall)
		c, err := New(srv.URL, WithHedging(10*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		// The bound turns a race that waits on the stalled arm into an error.
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_, err = c.Solve(ctx, SolveRequest{Net: "x", Library: "y"})
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Fatalf("err = %v, want the 400 APIError without waiting on the hedge arm", err)
		}
		if n := calls.Load(); n != 2 {
			t.Fatalf("server saw %d calls, want 2 (primary + hedge, no retry)", n)
		}

		// Answered before the hedge delay: exactly one request.
		calls.Store(0)
		c, err = New(srv.URL, WithHedging(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Solve(context.Background(), SolveRequest{Net: "x", Library: "y"}); !errors.As(err, &apiErr) {
			t.Fatalf("err = %v, want the 400 APIError", err)
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("server saw %d calls, want exactly 1", n)
		}
	})
	t.Run("503 fails over to the hedge", func(t *testing.T) {
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			if calls.Add(1) == 1 {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprint(w, `{"error":"draining"}`)
				return
			}
			fmt.Fprint(w, fakeSolveBody)
		}))
		defer srv.Close()
		c, err := New(srv.URL, WithHedging(5*time.Second), WithRetry(RetryPolicy{MaxAttempts: 1}))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := c.Solve(context.Background(), SolveRequest{Net: "x", Library: "y"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Slack != 42 || calls.Load() != 2 {
			t.Fatalf("result %+v after %d calls, want the hedge's answer after 2", res, calls.Load())
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("failover waited %v for the hedge delay", elapsed)
		}
		if s := c.Stats(); s.HedgesLaunched != 1 || s.HedgeWins != 1 || s.HedgeLosses != 0 {
			t.Fatalf("stats after failover win: %+v", s)
		}
	})
}

func TestReadyAndMetrics(t *testing.T) {
	s := server.New(server.Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ready(context.Background()); err != nil {
		t.Fatalf("Ready = %v, want nil", err)
	}
	s.SetDraining(true)
	err = c.Ready(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("Ready while draining = %v, want a 503 APIError", err)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"engine_runs", "shed_total", "draining"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("metrics missing %q: %v", key, m)
		}
	}
	var draining json.Number
	if err := json.Unmarshal(m["draining"], &draining); err != nil || draining.String() != "1" {
		t.Fatalf("draining metric = %s (%v), want 1", m["draining"], err)
	}
}
