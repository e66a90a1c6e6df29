// Package server implements bufferkitd's JSON-over-HTTP API on top of the
// bufferkit Solver: parse .net/.buf payloads, dispatch through the
// algorithm registry, and serve concurrent requests from a bounded pool of
// warm engines.
//
// Endpoints:
//
//	POST   /v1/solve          solve one net, JSON in / JSON out
//	POST   /v1/batch          solve many nets, JSON in / NDJSON stream out
//	POST   /v1/yield          Monte Carlo / multi-corner yield analysis
//	POST   /v1/chip           multi-net chip solve, JSON in / NDJSON rounds out
//	PUT    /v1/sessions/{id}  incremental ECO session: patch + re-solve one net
//	DELETE /v1/sessions/{id}  close an ECO session
//	GET    /v1/algorithms     registered algorithms with descriptions
//	GET    /v1/fleet          fleet topology + per-peer health (fleet mode)
//	PUT    /internal/v1/cache peer-to-peer result replication (fleet mode)
//	GET    /healthz           liveness probe
//	GET    /readyz            readiness probe (503 while draining)
//	GET    /metrics           expvar counters as JSON (or Prometheus text)
//	GET    /debug/traces      recent request traces
//
// The five engine-running handlers (solve, batch, yield, chip, session
// PUT) share one request lifecycle, built from the helpers in
// lifecycle.go: admit/release for engine slots, cacheGet/cacheStore for
// the result cache, coalesce for singleflight, startRun/endRun/recordRun
// for engine-run accounting, and ndjsonWriter for the streamed replies.
//
// Concurrency model: a deadline-aware admission controller
// (internal/resilience) bounds the engine runs in flight across all
// requests. A request that cannot get a slot immediately waits in a
// bounded queue; arrivals beyond the queue bound, requests whose remaining
// deadline cannot cover the observed solve-time EWMA, and waits exceeding
// Config.QueueTimeout are shed with 429 + Retry-After instead of piling
// up. The engines themselves come from internal/core's shared pool, so a
// loaded server reaches steady state with zero per-request engine
// construction. Each request's context (with its deadline) propagates into
// the per-vertex cancellation polls of RunContext, so a hung client or an
// expired budget stops the dynamic program mid-run.
//
// Duplicate in-flight solves collapse: /v1/solve and /v1/yield requests
// with equal cache keys share one engine run via singleflight, with
// waiter-safe cancellation — a disconnecting caller never kills the run
// other callers are waiting on. The winner populates the LRU cache, so
// followers of later bursts hit the cache without any coordination.
//
// An LRU cache keyed by (net digest, library digest, algorithm, options)
// serves repeated nets — the common case in synthesis loops — without
// parsing or solving anything; see internal/server/cache.
//
// A recovery middleware converts handler and engine panics into 500s with
// a logged stack and a panics_total counter, so one poisoned request
// cannot take down the connection (or, under singleflight, its waiters)
// silently. See DESIGN.md §13 for the resilience model.
package server

import (
	"cmp"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bufferkit"
	"bufferkit/internal/api"
	"bufferkit/internal/fleet"
	"bufferkit/internal/obs"
	"bufferkit/internal/resilience"
	"bufferkit/internal/server/cache"
)

// Config parameterizes a Server. The zero value is production-usable:
// GOMAXPROCS concurrent engine runs, an 8×-concurrency admission queue, a
// 4096-entry cache, a 30 s default solve budget capped at 5 min, 16 MiB
// request bodies.
type Config struct {
	// MaxConcurrent bounds engine runs in flight across all requests
	// (0 = GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an engine slot; arrivals beyond
	// it are shed with 429 (0 = 8×MaxConcurrent, negative = no queue:
	// every request not admitted immediately is shed).
	MaxQueue int
	// QueueTimeout caps how long one request may wait for admission before
	// being shed (0 = 10 s, negative = wait until the request deadline).
	QueueTimeout time.Duration
	// CacheEntries is the LRU result-cache capacity (0 = default 4096,
	// negative = caching disabled).
	CacheEntries int
	// DefaultTimeout is the per-request solve budget when the request does
	// not set timeout_ms (0 = 30 s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested budgets (0 = 5 min).
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies (0 = 16 MiB).
	MaxBodyBytes int64
	// MaxBatchNets bounds the nets accepted by one /v1/batch call
	// (0 = 10000).
	MaxBatchNets int
	// MaxYieldSamples bounds the Monte Carlo corners accepted by one
	// /v1/yield call (0 = 1024).
	MaxYieldSamples int
	// MaxChipNets bounds the nets accepted by one /v1/chip instance
	// (0 = 10000).
	MaxChipNets int
	// MaxSessions bounds concurrently retained ECO sessions (0 = 256,
	// negative = the sessions endpoint is disabled). When the table is
	// full, creating a session evicts the least-recently-used one.
	MaxSessions int
	// SessionTTL is a session's idle lifetime; sessions untouched for
	// longer are evicted opportunistically (0 = 10 min).
	SessionTTL time.Duration
	// Fleet configures the optional peer tier (see internal/fleet): with a
	// Self URL and a multi-member peer list, single solves route to their
	// cache home by consistent hashing, results replicate across R owners,
	// and a failure detector reroutes around dead peers. The zero value is
	// a plain single node. An invalid fleet config makes New panic;
	// validate with Fleet.Validate() first when the values come from
	// flags.
	Fleet fleet.Config
	// TenantQuotas enables per-tenant token-bucket shedding on the /v1
	// endpoints, keyed by the X-Bufferkit-Tenant header. Tenants without
	// an entry fall back to the "*" entry, or are unlimited without one.
	// Empty = no tenant quotas.
	TenantQuotas map[string]resilience.QuotaSpec
	// Logger receives the structured request-summary lines, slow-request
	// warnings and operational events (nil = logging discarded; tests stay
	// quiet by default and bufferkitd always supplies one).
	Logger *slog.Logger
	// SlowThreshold marks requests at least this slow as "slow request"
	// log warnings (0 = 1 s, negative = slow logging disabled).
	SlowThreshold time.Duration
	// TraceRing bounds the completed request traces retained for
	// GET /debug/traces (0 = 256, negative = tracing and request-summary
	// logging disabled entirely — the bench-baseline configuration).
	TraceRing int
}

func (c *Config) fill() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 8 * c.MaxConcurrent
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = -1 // normalized "no queue" sentinel; Controller gets 0
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 10 * time.Second
	}
	if c.QueueTimeout < 0 {
		c.QueueTimeout = -1 // wait until the request deadline
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.MaxBatchNets <= 0 {
		c.MaxBatchNets = 10000
	}
	if c.MaxYieldSamples <= 0 {
		c.MaxYieldSamples = 1024
	}
	if c.MaxChipNets <= 0 {
		c.MaxChipNets = 10000
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Minute
	}
}

// latencyBucketsMs are the fixed histogram bucket upper bounds (ms) for
// solve_latency_ms.
var latencyBucketsMs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// latencyHist is a fixed-bucket latency histogram rendered as an expvar
// map: per-bin counts keyed "le_<ms>" (plus "le_inf"), with "count" and
// "sum_ms" totals. Bins are disjoint, not cumulative.
type latencyHist struct {
	bins  []*expvar.Int // len(latencyBucketsMs)+1; last = overflow
	count *expvar.Int
	sumMs *expvar.Float
	m     *expvar.Map
}

func newLatencyHist() *latencyHist {
	h := &latencyHist{
		bins:  make([]*expvar.Int, len(latencyBucketsMs)+1),
		sumMs: new(expvar.Float),
		m:     new(expvar.Map).Init(),
	}
	for i := range latencyBucketsMs {
		h.bins[i] = newCounter(h.m, fmt.Sprintf("le_%g", latencyBucketsMs[i]))
	}
	h.bins[len(latencyBucketsMs)] = newCounter(h.m, "le_inf")
	h.count = newCounter(h.m, "count")
	h.m.Set("sum_ms", h.sumMs)
	return h
}

func (h *latencyHist) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for ; i < len(latencyBucketsMs); i++ {
		if ms <= latencyBucketsMs[i] {
			break
		}
	}
	h.bins[i].Add(1)
	h.count.Add(1)
	h.sumMs.Add(ms)
}

// Server holds the shared state behind the handlers. Create with New and
// mount via Handler.
type Server struct {
	cfg   Config
	adm   *resilience.Controller
	cache *cache.Cache
	start time.Time

	// rec is the observability recorder behind the instrument middleware:
	// request traces, the /debug/traces ring, and the request-summary log
	// stream. Nil when Config.TraceRing < 0 — every trace call no-ops.
	rec *obs.Recorder

	// draining flips GET /readyz to 503 so load balancers stop routing new
	// traffic while in-flight work completes.
	draining atomic.Bool

	// flights collapse duplicate in-flight solve/yield requests onto one
	// engine run each, keyed by the same digests as the cache.
	flights      resilience.Group[cache.Key, *api.SolveResult]
	yieldFlights resilience.Group[cache.Key, *api.YieldResult]

	// Fleet state (nil on a single node): the peer tier, its HTTP client,
	// per-tenant quotas, and the singleflight collapsing duplicate
	// forwards of one digest onto one peer call. Combined with
	// digest-homed routing — every node sends digest d to the same owner,
	// whose own flights group collapses local and forwarded callers — a
	// digest in flight anywhere in the fleet runs on exactly one engine.
	fleet          *fleet.Fleet
	fleetHTTP      *http.Client
	quotas         *resilience.TenantQuotas
	forwardFlights resilience.Group[cache.Key, *api.SolveResult]

	// Counters are kept on a private expvar.Map (not Publish-ed globally)
	// so tests can run many Servers in one process; /metrics renders the
	// map as JSON.
	metrics      *expvar.Map
	solveReqs    *expvar.Int
	batchReqs    *expvar.Int
	batchNets    *expvar.Int
	engineRuns   *expvar.Int
	cacheStores  *expvar.Int
	httpErrors   *expvar.Int
	inFlightRuns *expvar.Int
	panicsTotal  *expvar.Int
	sfShared     *expvar.Int
	solveLatency *latencyHist

	// Engine profiling counters: the DP's own work, aggregated across the
	// runs whose result carries Stats — solves, batch nets and session
	// resolves. Yield sweeps and chip solves report none.
	engCandidates *expvar.Int
	engPruned     *expvar.Int

	// Yield-sweep counters. The two abort counters are the endpoint's
	// partial-progress story: a sweep killed by the request deadline still
	// reports how many samples it completed before dying.
	yieldReqs           *expvar.Int
	yieldSamples        *expvar.Int
	yieldDeadlineAborts *expvar.Int
	yieldAbortedSamples *expvar.Int

	// Chip-solve counters. chipRounds counts pricing/repair rounds
	// streamed; the abort pair mirrors the yield story — a chip solve
	// killed mid-run still reports the rounds it completed.
	chipReqs           *expvar.Int
	chipNets           *expvar.Int
	chipRounds         *expvar.Int
	chipDeadlineAborts *expvar.Int
	chipAbortedRounds  *expvar.Int

	// ECO-session state and counters: the id-keyed table of retained
	// sessions (LRU + TTL evicted), and the per-request instrumentation —
	// sessionCacheHits counts resolves answered from the LRU cache without
	// touching the engine, sessionRebuilds/sessionRecomputed accumulate
	// each resolve's incremental-work story.
	sessMu   sync.Mutex
	sessions map[string]*sessionEntry

	sessionReqs      *expvar.Int
	sessionsCreated  *expvar.Int
	sessionsEvicted  *expvar.Int
	sessionPatches   *expvar.Int
	sessionResolves  *expvar.Int
	sessionCacheHits *expvar.Int
	sessionRebuilds  *expvar.Int
	sessionRecomp    *expvar.Int

	// Fleet counters: the forwarding story (forwards, collapse, hedges,
	// fallbacks), the replication story (write-through, read-repair,
	// replicas received), and the probe loop.
	fleetForwards         *expvar.Int
	fleetForwardShared    *expvar.Int
	fleetForwardErrors    *expvar.Int
	fleetHedges           *expvar.Int
	fleetHedgeWins        *expvar.Int
	fleetFallbacks        *expvar.Int
	fleetWriteThroughs    *expvar.Int
	fleetWriteThroughErrs *expvar.Int
	fleetReadRepairs      *expvar.Int
	fleetReplicasStored   *expvar.Int
	peerProbes            *expvar.Int
	peerProbeFailures     *expvar.Int
}

// New builds a Server from cfg (zero value = defaults).
func New(cfg Config) *Server {
	cfg.fill()
	admCfg := resilience.Config{
		Slots:    cfg.MaxConcurrent,
		MaxQueue: cfg.MaxQueue,
	}
	if admCfg.MaxQueue < 0 {
		admCfg.MaxQueue = 0
	}
	if cfg.QueueTimeout > 0 {
		admCfg.QueueTimeout = cfg.QueueTimeout
	}
	m := new(expvar.Map).Init()
	s := &Server{
		cfg:      cfg,
		adm:      resilience.NewController(admCfg),
		cache:    cache.New(cfg.CacheEntries),
		start:    time.Now(),
		metrics:  m,
		sessions: make(map[string]*sessionEntry),
		quotas:   resilience.NewTenantQuotas(cfg.TenantQuotas),
	}
	gauge := func(name string, f func() any) { m.Set(name, expvar.Func(f)) }

	s.solveReqs = newCounter(m, "solve_requests")
	s.batchReqs = newCounter(m, "batch_requests")
	s.batchNets = newCounter(m, "batch_nets")
	s.engineRuns = newCounter(m, "engine_runs")
	s.cacheStores = newCounter(m, "cache_stores")
	s.httpErrors = newCounter(m, "http_errors")
	s.inFlightRuns = newCounter(m, "in_flight_runs")
	s.panicsTotal = newCounter(m, "panics_total")
	s.sfShared = newCounter(m, "singleflight_shared")
	s.solveLatency = newLatencyHist()
	m.Set("solve_latency_ms", s.solveLatency.m)
	s.engCandidates = newCounter(m, "engine_candidates_total")
	s.engPruned = newCounter(m, "engine_pruned_total")
	gauge("traces_total", func() any {
		total, _ := s.rec.Totals()
		return total
	})
	gauge("slow_requests_total", func() any {
		_, slow := s.rec.Totals()
		return slow
	})

	s.yieldReqs = newCounter(m, "yield_requests")
	s.yieldSamples = newCounter(m, "yield_samples")
	s.yieldDeadlineAborts = newCounter(m, "yield_deadline_aborts")
	s.yieldAbortedSamples = newCounter(m, "yield_aborted_samples")

	s.chipReqs = newCounter(m, "chip_requests")
	s.chipNets = newCounter(m, "chip_nets")
	s.chipRounds = newCounter(m, "chip_rounds")
	s.chipDeadlineAborts = newCounter(m, "chip_deadline_aborts")
	s.chipAbortedRounds = newCounter(m, "chip_aborted_rounds")

	s.sessionReqs = newCounter(m, "session_requests")
	s.sessionsCreated = newCounter(m, "sessions_created")
	s.sessionsEvicted = newCounter(m, "sessions_evicted")
	s.sessionPatches = newCounter(m, "session_patches")
	s.sessionResolves = newCounter(m, "session_resolves")
	s.sessionCacheHits = newCounter(m, "session_cache_hits")
	s.sessionRebuilds = newCounter(m, "session_full_rebuilds")
	s.sessionRecomp = newCounter(m, "session_recomputed_vertices")
	gauge("sessions_active", func() any {
		s.sessMu.Lock()
		defer s.sessMu.Unlock()
		return len(s.sessions)
	})

	gauge("cache_hits", func() any { return s.cache.Stats().Hits })
	gauge("cache_misses", func() any { return s.cache.Stats().Misses })
	gauge("cache_evictions", func() any { return s.cache.Stats().Evictions })
	gauge("cache_len", func() any { return s.cache.Stats().Len })
	gauge("max_concurrent", func() any { return s.cfg.MaxConcurrent })
	gauge("max_queue", func() any { return max(s.cfg.MaxQueue, 0) })
	gauge("queue_depth", func() any { return s.adm.QueueDepth() })
	gauge("admission_wait_ns", func() any { return s.adm.Counters().AdmissionWaitNS })
	gauge("shed_total", func() any { return s.adm.Counters().Total() })
	gauge("shed_queue_full", func() any { return s.adm.Counters().ShedQueueFull })
	gauge("shed_deadline", func() any { return s.adm.Counters().ShedDeadline })
	gauge("shed_queue_timeout", func() any { return s.adm.Counters().ShedQueueTimeout })
	gauge("admission_canceled", func() any { return s.adm.Counters().CanceledWhileQueued })
	gauge("solve_ewma_ms", func() any {
		return float64(s.adm.Estimate()) / float64(time.Millisecond)
	})
	gauge("draining", func() any {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	gauge("uptime_seconds", func() any { return time.Since(s.start).Seconds() })
	gauge("go_version", func() any { return runtime.Version() })

	s.fleetForwards = newCounter(m, "fleet_forwards")
	s.fleetForwardShared = newCounter(m, "fleet_forward_shared")
	s.fleetForwardErrors = newCounter(m, "fleet_forward_errors")
	s.fleetHedges = newCounter(m, "fleet_hedges")
	s.fleetHedgeWins = newCounter(m, "fleet_hedge_wins")
	s.fleetFallbacks = newCounter(m, "fleet_local_fallbacks")
	s.fleetWriteThroughs = newCounter(m, "fleet_write_throughs")
	s.fleetWriteThroughErrs = newCounter(m, "fleet_write_through_errors")
	s.fleetReadRepairs = newCounter(m, "fleet_read_repairs")
	s.fleetReplicasStored = newCounter(m, "fleet_replicas_stored")
	s.peerProbes = newCounter(m, "peer_probes")
	s.peerProbeFailures = newCounter(m, "peer_probe_failures")
	gauge("fleet_peers", func() any {
		if s.fleet == nil {
			return 0
		}
		return len(s.fleet.Members())
	})
	gauge("fleet_replicas", func() any {
		if s.fleet == nil {
			return 0
		}
		return s.fleet.Config().Replicas
	})
	gauge("peer_alive", func() any { return s.peerCount(0) })
	gauge("peer_suspect", func() any { return s.peerCount(1) })
	gauge("peer_dead", func() any { return s.peerCount(2) })
	gauge("tenant_allowed", func() any { return s.quotas.Counters().Allowed })
	gauge("tenant_shed_total", func() any { return s.quotas.Counters().Shed })
	gauge("tenant_shed_by_tenant", func() any { return s.quotas.Counters().ShedByTenant })

	if cfg.TraceRing >= 0 {
		s.rec = obs.NewRecorder(obs.Options{
			Logger:        cfg.Logger,
			SlowThreshold: cfg.SlowThreshold,
			RingSize:      cfg.TraceRing,
		})
	}
	if cfg.Fleet.Enabled() {
		f, err := fleet.New(cfg.Fleet)
		if err != nil {
			panic("server: invalid fleet config: " + err.Error())
		}
		s.fleet = f
		s.fleetHTTP = &http.Client{Transport: cfg.Fleet.Transport}
		s.fleet.Start(s.probePeer, func(_ string, err error) {
			s.peerProbes.Add(1)
			if err != nil {
				s.peerProbeFailures.Add(1)
			}
		})
	}
	return s
}

// peerCount returns the number of other members in the given health class
// (0 alive, 1 suspect, 2 dead); 0 on a single node.
func (s *Server) peerCount(class int) int {
	if s.fleet == nil {
		return 0
	}
	alive, suspect, dead := s.fleet.Detector().Counts()
	switch class {
	case 0:
		return alive
	case 1:
		return suspect
	}
	return dead
}

// Close stops the fleet prober and waits for in-flight replication
// goroutines (write-through, read-repair). Single-node servers need no
// Close, but it is always safe to call.
func (s *Server) Close() {
	if s.fleet != nil {
		s.fleet.Close()
	}
}

// Handler returns the HTTP handler serving every endpoint, wrapped in the
// instrumentation middleware (request tracing, the X-Bufferkit-Trace
// header, panic recovery, the per-request summary log line).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/yield", s.handleYield)
	mux.HandleFunc("POST /v1/chip", s.handleChip)
	mux.HandleFunc("PUT /v1/sessions/{id}", s.handleSessionPut)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	mux.HandleFunc("PUT /internal/v1/cache", s.handleCacheReplica)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	return s.instrument(s.tenantLimit(mux))
}

// SetDraining flips drain mode: while draining, GET /readyz answers 503 so
// load balancers divert new traffic, while already-accepted requests run
// to completion. bufferkitd sets it on SIGTERM before closing the
// listener.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// trackingWriter records whether a response header was written (so the
// instrument middleware knows if a panic 500 can still be delivered) and
// which status was sent (for the trace and summary line). It carries the
// request's trace so deep error writers can stamp the trace id into error
// payloads via the traceCarrier assertion, and passes Flush through for
// the NDJSON streaming handlers.
type trackingWriter struct {
	http.ResponseWriter
	wroteHeader bool
	code        int
	trace       *obs.Trace
}

func (w *trackingWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.wroteHeader = true
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *trackingWriter) Write(b []byte) (int, error) {
	w.wroteHeader = true
	return w.ResponseWriter.Write(b)
}

func (w *trackingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Trace implements traceCarrier.
func (w *trackingWriter) Trace() *obs.Trace { return w.trace }

// status is the effective response status: the explicit WriteHeader code,
// or 200 when the handler wrote the body (or nothing) directly.
func (w *trackingWriter) status() int {
	if w.code != 0 {
		return w.code
	}
	return http.StatusOK
}

// legacyOptions are the request fields kept for clients that still send
// them. Prune used to pick a convex pruning mode: "" and "transient" are
// valid and ignored (the engines have one, exact, pruning path). Backend
// used to pin a candidate-list representation: "", "default", "list" and
// "soa" are valid and ignored (the engines have one representation). Any
// other value is a 400. Neither is part of the cache key, and neither is
// part of the shared schema in internal/api.
type legacyOptions struct {
	Prune   string `json:"prune,omitempty"`
	Backend string `json:"backend,omitempty"`
}

// The five engine endpoints decode into their shared api body plus
// legacyOptions, and validate both before any cache lookup (see
// decodeRequest).
type (
	solveRequest struct {
		api.SolveRequest
		legacyOptions
	}
	batchRequest struct {
		api.BatchRequest
		legacyOptions
	}
	yieldRequest struct {
		api.YieldRequest
		legacyOptions
	}
	chipRequest struct {
		api.ChipRequest
		legacyOptions
	}
	sessionRequest struct {
		api.SessionRequest
		legacyOptions
	}
)

func (r *solveRequest) validate() error   { return validateOptions(r.SolveOptions, r.legacyOptions) }
func (r *batchRequest) validate() error   { return validateOptions(r.SolveOptions, r.legacyOptions) }
func (r *yieldRequest) validate() error   { return validateOptions(r.SolveOptions, r.legacyOptions) }
func (r *chipRequest) validate() error    { return validateOptions(r.SolveOptions, r.legacyOptions) }
func (r *sessionRequest) validate() error { return validateOptions(r.SolveOptions, r.legacyOptions) }

// validateOptions rejects option values before any cache lookup: the
// compatibility no-ops outside the cache key must fail even when the rest
// of the payload would hit, and out-of-range numbers never reach a key or
// a solver.
func validateOptions(o api.SolveOptions, l legacyOptions) error {
	switch l.Backend {
	case "", "default", "list", "soa":
	default:
		return badRequestf("backend", "unknown backend %q (list or soa; the field is accepted and ignored)", l.Backend)
	}
	switch l.Prune {
	case "", "transient":
	default:
		return badRequestf("prune", "prune mode %q is not supported: the destructive mode was removed and pruning is always transient (exact)", l.Prune)
	}
	if o.MaxCost < 0 {
		return badRequestf("max_cost", "max_cost %d must be nonnegative (0 = no cap)", o.MaxCost)
	}
	if o.TimeoutMs < 0 {
		return badRequestf("timeout_ms", "timeout_ms %d must be nonnegative (0 = server default)", o.TimeoutMs)
	}
	return nil
}

// newSolver assembles a Solver for one request. extra carries per-mode
// options (WithDriver for solve, WithDrivers/WithWorkers for batch).
func newSolver(o api.SolveOptions, lib bufferkit.Library, extra ...bufferkit.Option) (*bufferkit.Solver, error) {
	opts := append([]bufferkit.Option{
		bufferkit.WithLibrary(lib),
		bufferkit.WithAlgorithm(algorithm(o)),
		bufferkit.WithMaxCost(o.MaxCost),
		bufferkit.WithStats(!o.NoStats),
	}, extra...)
	return bufferkit.NewSolver(opts...)
}

// cacheOptions canonicalizes the option fields that affect the result, for
// the cache key. TimeoutMs is excluded — a timeout changes whether a result
// exists, never its value.
func cacheOptions(o api.SolveOptions) string {
	return fmt.Sprintf("algo=%s maxcost=%d stats=%t", algorithm(o), o.MaxCost, !o.NoStats)
}

// algorithm is the registry name the request selects.
func algorithm(o api.SolveOptions) string { return cmp.Or(o.Algorithm, bufferkit.AlgoNew) }

// timeout resolves the request's solve budget against the server limits.
// The cap is applied in milliseconds, before converting to a Duration, so a
// huge timeout_ms clamps to MaxTimeout instead of overflowing.
func (s *Server) timeout(o api.SolveOptions) time.Duration {
	if o.TimeoutMs <= 0 {
		return min(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	}
	if int64(o.TimeoutMs) >= s.cfg.MaxTimeout.Milliseconds() {
		return s.cfg.MaxTimeout
	}
	return time.Duration(o.TimeoutMs) * time.Millisecond
}

// httpError is an error with a fixed HTTP status, optionally tied to a
// request field.
type httpError struct {
	status int
	msg    string
	field  string
}

func (e *httpError) Error() string { return e.msg }

// badRequestf builds a 400 httpError tied to a request field.
func badRequestf(field, format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, field: field, msg: fmt.Sprintf(format, args...)}
}

// vertexName returns the display name of vertex v: its file name when set,
// otherwise "v<i>" ("src" for the source).
func vertexName(t *bufferkit.Tree, v int) string {
	if v == 0 {
		return "src"
	}
	if n := t.Verts[v].Name; n != "" {
		return n
	}
	return indexName('v', v)
}

// bufferName returns the display name of library type b.
func bufferName(lib bufferkit.Library, b int) string {
	if n := lib[b].Name; n != "" {
		return n
	}
	return indexName('b', b)
}

// indexName renders prefix followed by i in decimal, as one allocation.
func indexName(prefix byte, i int) string {
	var buf [24]byte
	return string(strconv.AppendInt(append(buf[:0], prefix), int64(i), 10))
}

// placementNames renders a placement as vertex name → buffer type name.
// With ownNames the parsed vertex names it uses are copied into one slab
// of the reply's own. Pass it for a tree from a one-off parse: its names
// are substrings of the parse's slab of every vertex name, which a reply
// the cache keeps would otherwise hold whole. A session keeps its tree,
// so its replies share its slab instead.
func placementNames(t *bufferkit.Tree, lib bufferkit.Library, p bufferkit.Placement, ownNames bool) api.Placement {
	var slab strings.Builder
	if ownNames {
		size := 0
		for v, b := range p {
			if b != bufferkit.NoBuffer {
				size += len(t.Verts[v].Name)
			}
		}
		slab.Grow(size)
	}
	out := make(api.Placement, p.Count())
	for v, b := range p {
		if b == bufferkit.NoBuffer {
			continue
		}
		name := vertexName(t, v)
		if ownNames && name == t.Verts[v].Name {
			start := slab.Len()
			slab.WriteString(name)
			name = slab.String()[start:]
		}
		out[name] = bufferName(lib, b)
	}
	return out
}
