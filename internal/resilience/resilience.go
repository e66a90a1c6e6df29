// Package resilience provides the load-management primitives behind
// bufferkitd's resilience tier: a bounded, deadline-aware admission queue
// with load shedding (Controller) and in-flight request coalescing with
// waiter-safe cancellation (Group, in singleflight.go).
//
// The admission model replaces a bare semaphore. A bare semaphore admits
// every request eventually: under sustained overload the wait queue grows
// without bound inside net/http, every queued request ties up a goroutine
// and a connection, and by the time a slot frees up the client's deadline
// has long expired — the server does the work and throws the answer away.
// The Controller instead:
//
//   - grants a slot immediately when one is free (the uncontended path is a
//     single non-blocking channel send);
//   - rejects a request up front when its remaining deadline cannot cover
//     the observed solve-time EWMA — the work would be wasted;
//   - bounds the number of waiters: when the queue is full, new arrivals
//     are shed immediately with a Retry-After derived from queue depth ×
//     EWMA, so clients back off instead of piling on;
//   - caps the time any request spends waiting (QueueTimeout), so a
//     admitted-but-stuck request becomes a fast failure rather than a
//     deadline burn.
//
// Shed decisions are reported as *ShedError, which carries the reason and
// the Retry-After hint; servers map it to 429 Too Many Requests.
package resilience

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// EWMA is a thread-safe exponentially weighted moving average of observed
// durations. The zero value is unusable; use NewEWMA.
type EWMA struct {
	mu    sync.Mutex
	alpha float64
	val   float64 // nanoseconds; 0 = no observations yet
	seen  bool
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1].
func NewEWMA(alpha float64) *EWMA { return &EWMA{alpha: alpha} }

// Observe folds one duration into the average.
func (e *EWMA) Observe(d time.Duration) {
	e.mu.Lock()
	if !e.seen {
		e.val, e.seen = float64(d), true
	} else {
		e.val = e.alpha*float64(d) + (1-e.alpha)*e.val
	}
	e.mu.Unlock()
}

// Value returns the current average, or 0 before any observation.
func (e *EWMA) Value() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return time.Duration(e.val)
}

// ShedReason says why the Controller rejected a request.
type ShedReason int

const (
	// ShedQueueFull: the bounded wait queue was at capacity.
	ShedQueueFull ShedReason = iota
	// ShedDeadline: the request's remaining deadline could not cover the
	// observed solve-time EWMA, so admitting it would waste an engine.
	ShedDeadline
	// ShedQueueTimeout: the request waited QueueTimeout without getting a
	// slot.
	ShedQueueTimeout
)

// String names the reason for logs and error messages.
func (r ShedReason) String() string {
	switch r {
	case ShedQueueFull:
		return "queue full"
	case ShedDeadline:
		return "deadline shorter than expected solve time"
	case ShedQueueTimeout:
		return "queue wait timed out"
	}
	return "shed"
}

// ShedError reports a load-shedding rejection. Servers should map it to
// 429 Too Many Requests with a Retry-After header.
type ShedError struct {
	Reason ShedReason
	// RetryAfter estimates when capacity will be available: queue depth ×
	// solve-time EWMA ÷ slots (floored at one EWMA). Zero when the
	// controller has no latency observations yet.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("overloaded: %s (retry after %s)", e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// CanceledError reports a caller whose context fired while it was queued
// for admission. Distinct from load shedding — the server was not refusing
// work, the client stopped waiting — so it gets its own counter and is
// excluded from the admission-wait average. Unwrap exposes the context
// sentinel, keeping errors.Is(err, context.Canceled/DeadlineExceeded) — and
// the server's 504 mapping built on it — intact.
type CanceledError struct {
	// Err is the context's error (context.Canceled or DeadlineExceeded).
	Err error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("admission wait canceled: %v", e.Err)
}

func (e *CanceledError) Unwrap() error { return e.Err }

// ewmaAlpha is the admission-latency average's smoothing factor: each new
// sample contributes 20%.
const ewmaAlpha = 0.2

// Config parameterizes a Controller.
type Config struct {
	// Slots is the number of concurrently admitted requests (required > 0).
	Slots int
	// MaxQueue bounds requests waiting for a slot; arrivals beyond it are
	// shed immediately. 0 disables queueing entirely (a busy controller
	// sheds at once).
	MaxQueue int
	// QueueTimeout caps the time one request may wait for admission;
	// 0 = wait until the request's own context fires.
	QueueTimeout time.Duration
}

// Counters is a point-in-time snapshot of the controller's statistics.
type Counters struct {
	ShedQueueFull    int64
	ShedDeadline     int64
	ShedQueueTimeout int64
	// AdmissionWaitNS sums the queue time of requests that ran the wait to
	// its outcome (admitted or shed). Canceled waits are excluded — a
	// client giving up early would drag the average toward its own
	// impatience, not the server's backlog.
	AdmissionWaitNS int64
	Admitted        int64
	// CanceledWhileQueued counts waiters whose context fired in the queue.
	CanceledWhileQueued int64
}

// Total returns the total shed count across reasons.
func (c Counters) Total() int64 { return c.ShedQueueFull + c.ShedDeadline + c.ShedQueueTimeout }

// Controller is the bounded, deadline-aware admission queue. Create with
// NewController; all methods are safe for concurrent use.
type Controller struct {
	cfg   Config
	slots chan struct{}
	ewma  *EWMA

	queued   atomic.Int64
	waitNS   atomic.Int64
	admitted atomic.Int64

	shedFull     atomic.Int64
	shedDeadline atomic.Int64
	shedTimeout  atomic.Int64
	canceled     atomic.Int64
}

// NewController builds a Controller. Slots must be positive.
func NewController(cfg Config) *Controller {
	if cfg.Slots <= 0 {
		panic("resilience: NewController needs Slots > 0")
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	return &Controller{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.Slots),
		ewma:  NewEWMA(ewmaAlpha),
	}
}

// Acquire obtains one slot, queueing within the configured bounds. It
// returns nil when admitted, a *ShedError when the request is shed, or a
// *CanceledError (unwrapping to ctx.Err()) when the caller's context fires
// while waiting. Every nil return must be paired with Release(1).
func (c *Controller) Acquire(ctx context.Context) error {
	// Uncontended fast path: no queueing, no deadline math.
	select {
	case c.slots <- struct{}{}:
		c.admitted.Add(1)
		return nil
	default:
	}
	// All slots busy. Reject outright when the caller cannot profit even
	// from an immediate slot: remaining deadline < expected solve time.
	if dl, ok := ctx.Deadline(); ok {
		if est := c.ewma.Value(); est > 0 && time.Until(dl) < est {
			c.shedDeadline.Add(1)
			return &ShedError{Reason: ShedDeadline, RetryAfter: c.RetryAfter()}
		}
	}
	// Claim a bounded queue position.
	for {
		n := c.queued.Load()
		if n >= int64(c.cfg.MaxQueue) {
			c.shedFull.Add(1)
			return &ShedError{Reason: ShedQueueFull, RetryAfter: c.RetryAfter()}
		}
		if c.queued.CompareAndSwap(n, n+1) {
			break
		}
	}
	start := time.Now()
	canceled := false
	defer func() {
		c.queued.Add(-1)
		if !canceled {
			c.waitNS.Add(int64(time.Since(start)))
		}
	}()
	var timeout <-chan time.Time
	if c.cfg.QueueTimeout > 0 {
		t := time.NewTimer(c.cfg.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case c.slots <- struct{}{}:
		c.admitted.Add(1)
		return nil
	case <-ctx.Done():
		canceled = true
		c.canceled.Add(1)
		return &CanceledError{Err: ctx.Err()}
	case <-timeout:
		c.shedTimeout.Add(1)
		return &ShedError{Reason: ShedQueueTimeout, RetryAfter: c.RetryAfter()}
	}
}

// TryExtra grabs up to n additional slots without queueing or blocking and
// returns how many it got. Batch-style requests use it to widen a worker
// pool when the controller is idle; the extras must be returned via
// Release.
func (c *Controller) TryExtra(n int) int {
	got := 0
	for ; got < n; got++ {
		select {
		case c.slots <- struct{}{}:
		default:
			return got
		}
	}
	return got
}

// Release returns n slots.
func (c *Controller) Release(n int) {
	for i := 0; i < n; i++ {
		<-c.slots
	}
}

// Observe feeds one completed-request latency into the EWMA that drives
// deadline shedding and Retry-After estimates.
func (c *Controller) Observe(d time.Duration) { c.ewma.Observe(d) }

// Estimate returns the current solve-time EWMA (0 before any observation).
func (c *Controller) Estimate() time.Duration { return c.ewma.Value() }

// QueueDepth returns the number of requests currently waiting for a slot.
func (c *Controller) QueueDepth() int64 { return c.queued.Load() }

// RetryAfter estimates how long a shed client should back off: the time
// for the current queue (plus the shed request itself) to drain through
// the slots at the observed per-request latency, floored at one EWMA.
// Zero before any latency observation.
func (c *Controller) RetryAfter() time.Duration {
	est := c.ewma.Value()
	if est <= 0 {
		return 0
	}
	d := time.Duration(c.queued.Load()+1) * est / time.Duration(c.cfg.Slots)
	return max(d, est)
}

// Counters returns a snapshot of the controller's statistics.
func (c *Controller) Counters() Counters {
	return Counters{
		ShedQueueFull:       c.shedFull.Load(),
		ShedDeadline:        c.shedDeadline.Load(),
		ShedQueueTimeout:    c.shedTimeout.Load(),
		AdmissionWaitNS:     c.waitNS.Load(),
		Admitted:            c.admitted.Load(),
		CanceledWhileQueued: c.canceled.Load(),
	}
}
