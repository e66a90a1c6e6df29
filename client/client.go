// Package client is the typed Go client for bufferkitd. It speaks the
// server's JSON/NDJSON API and bakes in the retry discipline the server's
// resilience tier expects from well-behaved callers:
//
//   - Jittered exponential backoff on retryable failures (connection
//     errors, 429, 502, 503), honoring the server's Retry-After hint when
//     one is present — a shed server names its own backoff.
//   - A retry budget (token bucket) so a broken dependency produces a
//     bounded trickle of retries, not a synchronized storm.
//   - No retry of non-idempotent progress: once any byte of a batch NDJSON
//     stream has been consumed, the stream is never silently re-run —
//     truncation surfaces as ErrTruncated and the caller decides.
//   - 504 (the server's deadline verdict) and other 4xx are terminal:
//     retrying work the server already declared over-budget only deepens
//     an overload.
//   - Optional hedged solves: when a P95 latency hint is configured, a
//     second identical request races the first after that delay and the
//     first response wins. Solves are idempotent and cached server-side,
//     so hedging is safe.
//   - W3C traceparent propagation: every request carries a traceparent
//     header, minted once per logical call so retries, failovers and both
//     hedge arms share a single trace id on the server side. The server's
//     trace id comes back in SolveResult.Trace and APIError.Trace.
//
// See DESIGN.md §13 for the full resilience model and README.md for a
// usage example.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"bufferkit/internal/fleet"
	"bufferkit/internal/obs"
)

// RetryPolicy shapes the backoff loop. The zero value means defaults:
// 4 attempts, 100 ms base, 2 s cap.
type RetryPolicy struct {
	// MaxAttempts bounds total tries per call, first included
	// (0 = default 4; 1 = never retry).
	MaxAttempts int
	// BaseDelay is the first backoff step (0 = default 100 ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (0 = default 2 s).
	MaxDelay time.Duration
}

func (p *RetryPolicy) fill() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
}

// Client is a bufferkitd API client. Safe for concurrent use.
type Client struct {
	base  *url.URL
	hc    *http.Client
	retry RetryPolicy
	// hedgeAfter launches a second identical solve when the first has not
	// answered within this delay (0 = hedging off). Only Solve ever
	// hedges: batch, chip and session requests are streaming or stateful —
	// replaying one is not idempotent — so they are never raced.
	hedgeAfter time.Duration
	budget     *retryBudget
	// Fleet affinity state (see fleet.go): the member ring mirrors the
	// servers' consistent hash, so Solve goes straight to a digest's cache
	// home. peerMu guards it because BootstrapPeers can refresh the list
	// at runtime. initErr carries an option's deferred validation failure
	// into New.
	peerMu  sync.RWMutex
	peerURL map[string]*url.URL
	ring    *peerRing
	initErr error
	stats   clientStats
	// sleep, jitter and now are test seams; production uses real time and
	// rand.Float64.
	sleep  func(context.Context, time.Duration) error
	jitter func() float64
	now    func() time.Time
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default: a
// dedicated client with a 30 s overall timeout disabled — deadlines come
// from the caller's context).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry overrides the retry policy.
func WithRetry(p RetryPolicy) Option { return func(c *Client) { c.retry = p } }

// WithRetryBudget bounds retry volume: every original request earns
// `ratio` retry tokens (capped at burst) and every retry spends one, so
// sustained failures retry at ratio× the request rate instead of
// multiplying it. Defaults: ratio 0.1, burst 10. ratio <= 0 disables the
// budget (every retry allowed).
func WithRetryBudget(ratio float64, burst int) Option {
	return func(c *Client) { c.budget = newRetryBudget(ratio, burst) }
}

// WithHedging arms hedged solves: if a Solve has not answered within d —
// a P95 latency hint from /metrics, typically — a second identical
// request is launched and the first response wins. Only Solve hedges;
// batch streams and yield sweeps are too expensive to double-run.
func WithHedging(d time.Duration) Option { return func(c *Client) { c.hedgeAfter = d } }

// New builds a Client for a bufferkitd base URL such as
// "http://localhost:8080".
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs a scheme and host", baseURL)
	}
	c := &Client{
		base:   u,
		hc:     &http.Client{},
		budget: newRetryBudget(0.1, 10),
		sleep:  sleepCtx,
		jitter: rand.Float64,
		now:    time.Now,
	}
	c.retry.fill()
	for _, o := range opts {
		o(c)
	}
	c.retry.fill()
	if c.initErr != nil {
		return nil, c.initErr
	}
	return c, nil
}

// APIError is a non-2xx reply, decoded from the server's JSON error body.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error string.
	Message string
	// Field names the offending request field on 400s, when known.
	Field string
	// Peer names the fleet member whose verdict this is when the error
	// was relayed through a forwarding node — a peer's 504 is
	// distinguishable from the contacted node's own deadline ("" = the
	// node this client talked to).
	Peer string
	// Trace is the server-side trace id of the failed request, when the
	// server got far enough to mint one — quote it against the server's
	// /debug/traces ring and request-summary logs.
	Trace string
	// RetryAfter is the server's backoff hint on 429/503 (0 = none).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("bufferkitd: %d %s (field %s)", e.Status, e.Message, e.Field)
	}
	return fmt.Sprintf("bufferkitd: %d %s", e.Status, e.Message)
}

// Temporary reports whether the reply invites a retry (429 or 503).
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// ErrTruncated reports a batch NDJSON stream that ended with the server's
// terminal error record instead of completing. The client never retries
// past it: the caller has already consumed part of the stream.
var ErrTruncated = errors.New("bufferkitd: batch stream truncated")

// ErrBudgetExhausted marks a retryable failure that was not retried
// because the retry budget was empty.
var ErrBudgetExhausted = errors.New("bufferkitd: retry budget exhausted")

// retryable reports whether err invites another attempt: transport
// failures and Temporary API errors do; everything else — 4xx, the
// server's 504 deadline verdict, 500 — is terminal.
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Temporary() || apiErr.Status == http.StatusBadGateway
	}
	// Respect the caller's context: a fired deadline is not retryable.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	// Anything else from the transport is a connection-level failure.
	return true
}

// backoff computes the jittered exponential delay for attempt (0-based
// retry index), honoring the server hint when present.
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	if hint > 0 {
		return hint
	}
	d := c.retry.BaseDelay << attempt
	if d > c.retry.MaxDelay || d <= 0 {
		d = c.retry.MaxDelay
	}
	// Full jitter in [d/2, d): desynchronizes clients that shed together.
	return d/2 + time.Duration(c.jitter()*float64(d/2))
}

// do sends a request through the retry loop and returns the first
// successful response; the caller owns its body. Retries happen only
// before a response is obtained — consuming a streamed body and then
// failing is the caller's to surface, never to silently re-run.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	return c.doTargets(ctx, method, path, body, nil)
}

// doTargets is the retry loop over an ordered target list (nil = just the
// base URL). With multiple targets, a retryable failure advances to the
// next one — and a connection-level failure fails over immediately, no
// backoff, because waiting out a dead peer helps nobody. The retry budget
// and attempt cap bound the total work either way.
func (c *Client) doTargets(ctx context.Context, method, path string, body []byte, targets []*url.URL) (*http.Response, error) {
	if len(targets) == 0 {
		targets = []*url.URL{c.base}
	}
	// One traceparent for the whole loop: every retry and failover carries
	// the same trace id, so the server-side story of a flaky call is one
	// trace, not one per attempt.
	ctx, _ = obs.EnsureTraceparent(ctx)
	var lastErr error
	target := 0
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !c.budget.allow() {
				return nil, fmt.Errorf("%w after %v", ErrBudgetExhausted, lastErr)
			}
			var apiErr *APIError
			if errors.As(lastErr, &apiErr) {
				if err := c.sleep(ctx, c.backoff(attempt-1, apiErr.RetryAfter)); err != nil {
					return nil, err
				}
			} else if target == 0 {
				// Transport failure with nowhere else to go: plain backoff.
				if err := c.sleep(ctx, c.backoff(attempt-1, 0)); err != nil {
					return nil, err
				}
			}
		}
		resp, err := c.attemptAt(ctx, targets[target%len(targets)], method, path, body)
		if err == nil {
			c.budget.deposit()
			return resp, nil
		}
		lastErr = err
		if !retryable(err) {
			return nil, err
		}
		if len(targets) > 1 {
			target++
			c.stats.peerFailovers.Add(1)
		}
	}
	return nil, lastErr
}

// attempt sends one request to the base URL; see attemptAt.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	return c.attemptAt(ctx, c.base, method, path, body)
}

// attemptAt sends one request to the given base and maps non-2xx replies
// to *APIError.
func (c *Client) attemptAt(ctx context.Context, base *url.URL, method, path string, body []byte) (*http.Response, error) {
	u := base.JoinPath(path)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u.String(), rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tp := obs.TraceparentFromContext(ctx); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	apiErr := &APIError{Status: resp.StatusCode}
	var eb struct {
		Error string `json:"error"`
		Field string `json:"field"`
		Peer  string `json:"peer"`
		Trace string `json:"trace"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
		apiErr.Message, apiErr.Field, apiErr.Peer, apiErr.Trace = eb.Error, eb.Field, eb.Peer, eb.Trace
	} else {
		apiErr.Message = strings.TrimSpace(string(raw))
	}
	if apiErr.Trace == "" {
		apiErr.Trace = resp.Header.Get("X-Bufferkit-Trace")
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		apiErr.RetryAfter = c.parseRetryAfter(s)
	}
	return nil, apiErr
}

// parseRetryAfter decodes a Retry-After header. RFC 9110 §10.2.3 allows two
// forms: delta-seconds ("120") and an HTTP-date ("Fri, 07 Aug 2026 12:00:00
// GMT"); proxies in particular favor the date form. Unparseable or past
// values yield 0 (no hint — the computed backoff applies).
func (c *Client) parseRetryAfter(s string) time.Duration {
	if secs, err := strconv.Atoi(s); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(s); err == nil {
		if d := at.Sub(c.now()); d > 0 {
			return d
		}
	}
	return 0
}

// postJSON runs the retry loop and decodes a JSON reply into out.
func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	return c.doJSON(ctx, http.MethodPost, path, in, out)
}

// doJSON runs the retry loop for any method and decodes a JSON reply into
// out (nil = discard).
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Solve solves one net. With a known peer list (WithPeers or
// BootstrapPeers) the request goes straight to the digest's cache home —
// computed from the same consistent hash the servers route by — with the
// remaining members as failover order. When hedging is armed
// (WithHedging) and the first request has not answered within the hint,
// a second identical request races it (against the replica, in fleet
// mode) and the first response wins — safe because solves are idempotent
// and cached server-side.
func (c *Client) Solve(ctx context.Context, req SolveRequest) (*SolveResult, error) {
	targets := c.solveTargets(&req)
	if c.hedgeAfter <= 0 {
		var out SolveResult
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		resp, err := c.doTargets(ctx, http.MethodPost, "/v1/solve", body, targets)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, err
		}
		out.Trace = resp.Header.Get("X-Bufferkit-Trace")
		return &out, nil
	}
	return c.hedgedSolve(ctx, req, targets)
}

// hedgedSolve races the solve with fleet.Hedged over the first two targets
// (the base URL twice outside fleet mode): the hedge arm launches after the
// hedge delay, or at once when the primary arm fails. Each arm retries
// within its own target only — the other arm covers the other member. A
// non-retryable *APIError is the server's verdict, not a flaky member, so
// it ends the race at once instead of failing over.
func (c *Client) hedgedSolve(ctx context.Context, req SolveRequest, targets []*url.URL) (*SolveResult, error) {
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	// Both hedge arms carry the same traceparent (minted here, before the
	// arms fork), so the two server-side traces share one trace id and the
	// race is reconstructible from either node's /debug/traces.
	ctx, _ = obs.EnsureTraceparent(ctx)
	if len(targets) == 0 {
		targets = []*url.URL{c.base}
	}
	arms := []*url.URL{targets[0], targets[1%len(targets)]}
	names := []string{arms[0].String(), arms[1].String()}
	type outcome struct {
		res     *SolveResult
		verdict error // a terminal server error that ends the race
	}
	hedgeLaunched := false
	out, _, hedgeWon, err := fleet.Hedged(ctx, names, c.hedgeAfter, nil,
		func(i int) {
			if i > 0 {
				hedgeLaunched = true
				c.stats.hedgesLaunched.Add(1)
			}
		},
		func(ctx context.Context, target string) (outcome, error) {
			// Equal names denote equal URLs, so the first match serves.
			arm := []*url.URL{arms[slices.Index(names, target)]}
			resp, err := c.doTargets(ctx, http.MethodPost, "/v1/solve", body, arm)
			if err != nil {
				var apiErr *APIError
				if errors.As(err, &apiErr) && !retryable(err) {
					return outcome{verdict: err}, nil
				}
				return outcome{}, err
			}
			defer resp.Body.Close()
			var res SolveResult
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				return outcome{}, err
			}
			res.Trace = resp.Header.Get("X-Bufferkit-Trace")
			return outcome{res: &res}, nil
		})
	if err != nil {
		return nil, err
	}
	if out.verdict != nil {
		return nil, out.verdict
	}
	if hedgeLaunched {
		// First success wins; score the race for Stats.
		if hedgeWon {
			c.stats.hedgeWins.Add(1)
		} else {
			c.stats.hedgeLosses.Add(1)
		}
	}
	return out.res, nil
}

// Yield runs Monte Carlo / multi-corner yield analysis on one net.
func (c *Client) Yield(ctx context.Context, req YieldRequest) (*YieldResult, error) {
	var out YieldResult
	if err := c.postJSON(ctx, "/v1/yield", &req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready probes GET /readyz. It returns nil when the server accepts new
// work and an *APIError (status 503) while it drains. A probe reports
// the instantaneous state, so it never retries.
func (c *Client) Ready(ctx context.Context) error {
	resp, err := c.attempt(ctx, http.MethodGet, "/readyz", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Metrics fetches GET /metrics as raw JSON values, keyed by counter name.
func (c *Client) Metrics(ctx context.Context) (map[string]json.RawMessage, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return m, nil
}

// retryBudget is the token bucket bounding retry volume.
type retryBudget struct {
	mu     sync.Mutex
	ratio  float64
	burst  float64
	tokens float64
}

func newRetryBudget(ratio float64, burst int) *retryBudget {
	if ratio <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = 10
	}
	return &retryBudget{ratio: ratio, burst: float64(burst), tokens: float64(burst)}
}

// allow spends one token for a retry; false means the budget is dry.
func (b *retryBudget) allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// deposit credits a successful request.
func (b *retryBudget) deposit() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens = min(b.tokens+b.ratio, b.burst)
}

// sleepCtx sleeps for d or until ctx fires.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
