package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"bufferkit"
	"bufferkit/client"
	"bufferkit/internal/core"
	"bufferkit/internal/fleet"
	"bufferkit/internal/obs"
	"bufferkit/internal/server"
	"bufferkit/internal/server/cache"
)

// The traced run (-trace 1). It measures one request's time layer by
// layer, on the workload's own inputs, by timing calls into each layer's
// public functions from here — the program itself is not changed:
//
//   - client: the public client against the bufferkitd child, stitched to
//     the child's own spans from GET /debug/traces via the traceparent the
//     benchmark sends, so the client span's self time is transport plus
//     client work;
//   - server: the HTTP handler in-process (server.New(...).Handler());
//   - netlist, bufferkit (facade) and core (warm engine) in-process;
//   - fleet: a solve through the non-home node of a 2-node loopback fleet.
//
// Spans are kept in memory and written to <out>/spans-<workload>-<seed>.json
// at exit; each layer's self time is printed with the result.

// span is one timed call. Spans of one request share ID; Parent names the
// enclosing span of the same request ("" for a root).
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// recorder keeps spans in memory. Times are ms since the recorder began.
type recorder struct {
	t0     time.Time
	spans  []span
	lastID int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) newID() int { r.lastID++; return r.lastID }

func (r *recorder) add(id int, name, parent string, start, end time.Time) {
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Start: ms(start.Sub(r.t0)), End: ms(end.Sub(r.t0))})
}

// time runs fn as root span name of a new request and returns fn's error.
func (r *recorder) time(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	r.add(r.newID(), name, "", start, time.Now())
	return err
}

// repeat times fn as span name until at least minIter calls and the
// time slice have both been spent.
func (r *recorder) repeat(name string, slice time.Duration, minIter int, fn func(i int) error) error {
	start := time.Now()
	for i := 0; i < minIter || time.Since(start) < slice; i++ {
		if err := r.time(name, func() error { return fn(i) }); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// durations returns the duration (ms) of every span called name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes returns each span name's median self time: the span's
// duration minus the part of it its direct children cover.
func (r *recorder) selfTimes() map[string]float64 {
	type key struct {
		id   int
		name string
	}
	covered := map[key]float64{}
	for _, s := range r.spans {
		if s.Parent != "" {
			covered[key{s.ID, s.Parent}] += s.End - s.Start
		}
	}
	self := map[string][]float64{}
	for _, s := range r.spans {
		self[s.Name] = append(self[s.Name], s.End-s.Start-covered[key{s.ID, s.Name}])
	}
	out := map[string]float64{}
	for name, xs := range self {
		out[name] = median(xs)
	}
	return out
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerRun accumulates the traced run's metrics.
type layerRun struct {
	o     options
	rec   *recorder
	in    *layerInputs
	orc   *oracle
	m     map[string]metric
	names int // unique net-name counter
	notes *notes
	ctx   context.Context
	slice time.Duration // time slice per in-process layer
}

func (l *layerRun) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// uniq returns a fresh net name, so a request misses every result cache.
func (l *layerRun) uniq() string { l.names++; return fmt.Sprintf("layer%d_%d", l.o.seed, l.names) }

func traced(o options, w workload, orc *oracle) (*result, *notes, error) {
	l := &layerRun{
		o: o, rec: newRecorder(), in: w.sample(), orc: orc,
		m: map[string]metric{}, notes: &notes{}, ctx: context.Background(),
	}
	budget := time.Duration(o.seconds) * time.Second
	l.slice = budget / 2 / 12

	res, err := l.childPhase(w, budget/2)
	if err != nil {
		return nil, nil, err
	}
	for _, step := range []func() error{l.handlers, l.parse, l.facade, l.session, l.fleet} {
		if err := step(); err != nil {
			return nil, nil, err
		}
	}
	l.selfTimes()
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	if err := l.rec.write(path); err != nil {
		return nil, nil, err
	}
	l.notes.printf("spans written to %s", path)
	res.Metrics = l.m
	return res, l.notes, nil
}

// childPhase runs the workload's closed loop against a bufferkitd child
// for d, alternating traced and untraced requests so the difference of
// their medians is the tracing overhead; then it times the three client
// calls on the workload's inputs and reads the child's own spans, cache
// counters and GC counters.
func (l *layerRun) childPhase(w workload, d time.Duration) (*result, error) {
	ch, c, _, err := launch(l.ctx, l.o.bufferkitd, w)
	if err != nil {
		return nil, err
	}
	defer ch.stop()
	before, err := ch.memStats(l.ctx)
	if err != nil {
		return nil, err
	}
	hits0, misses0, err := l.cacheCounts(c)
	if err != nil {
		return nil, err
	}
	op := map[string]string{"industrial": "client.solve", "smallnets": "client.batch", "eco": "client.session_patch"}[l.o.workload]
	traceOf := map[int]string{} // span id → trace id
	var plain []float64
	nets, failed := 0, 0
	var reqErr error
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		var n int
		if i%2 == 0 {
			tp := obs.NewTraceparent()
			ctx := obs.ContextWithTraceparent(l.ctx, tp)
			err = l.rec.time(op, func() error {
				var e error
				n, e = w.do(ctx, c, i)
				return e
			})
			traceOf[l.rec.lastID] = tp[3:35]
		} else {
			t := time.Now()
			n, err = w.do(l.ctx, c, i)
			plain = append(plain, ms(time.Since(t)))
		}
		w.keep()
		nets += n
		if err != nil {
			failed += n
			if reqErr == nil {
				reqErr = err
			}
		}
	}
	after, err := ch.memStats(l.ctx)
	if err != nil {
		return nil, err
	}
	hits1, misses1, err := l.cacheCounts(c)
	if err != nil {
		return nil, err
	}
	hits, misses := hits1-hits0, misses1-misses0
	l.set("server.cache_hit_frac", hits/max(hits+misses, 1), "ratio")
	l.notes.samples = len(plain) + len(l.rec.durations(op))
	tracedMed, plainMed := median(l.rec.durations(op)), median(plain)
	l.set("trace.overhead_ms", tracedMed-plainMed, "ms")
	l.notes.printf("tracing overhead: traced %s p50 %.4f ms vs untraced %.4f ms", op, tracedMed, plainMed)
	l.set("runtime.gc_cycles_per_net", float64(after.NumGC-before.NumGC)/float64(nets), "count")
	l.set("runtime.gc_pause_ms_per_net", ms(gcPause(before, after))/float64(nets), "ms")

	if err := l.clientCalls(c, traceOf); err != nil {
		return nil, err
	}
	if err := l.childSpans(ch, traceOf); err != nil {
		return nil, err
	}
	ch.stop()

	ok, verr := w.verify()
	if reqErr != nil {
		l.notes.printf("request failures: %d nets, first: %v", failed, reqErr)
	}
	if verr != nil {
		l.notes.printf("wrong answers: first: %v", verr)
	}
	return &result{Correct: ok == nets && nets > 0 && reqErr == nil && verr == nil, Attempted: nets, Failed: nets - ok}, nil
}

// clientCalls times client.Solve, client.Batch and Session.Patch on the
// workload's inputs against the child. Each request is traced like the
// closed-loop ones.
func (l *layerRun) clientCalls(c *client.Client, traceOf map[int]string) error {
	const iters = 12
	traced := func(name string, fn func(ctx context.Context) error) error {
		for range iters {
			tp := obs.NewTraceparent()
			ctx := obs.ContextWithTraceparent(l.ctx, tp)
			if err := l.rec.time(name, func() error { return fn(ctx) }); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			traceOf[l.rec.lastID] = tp[3:35]
		}
		l.set(name+"_ms", median(l.rec.durations(name)), "ms")
		return nil
	}
	if err := traced("client.solve", func(ctx context.Context) error {
		_, err := c.Solve(ctx, client.SolveRequest{Net: l.in.single.text(l.uniq()), Library: l.orc.libText})
		return err
	}); err != nil {
		return err
	}
	if err := traced("client.batch", func(ctx context.Context) error {
		req := client.BatchRequest{Library: l.orc.libText}
		for _, r := range l.in.batch {
			req.Nets = append(req.Nets, r.text(l.uniq()))
		}
		st, err := c.Batch(ctx, req)
		if err != nil {
			return err
		}
		defer st.Close()
		lines, err := st.Collect(len(req.Nets))
		for _, ln := range lines {
			if ln.Error != "" && err == nil {
				err = fmt.Errorf("net %d: %s", ln.Index, ln.Error)
			}
		}
		return err
	}); err != nil {
		return err
	}
	sess := c.Session("layer-"+l.uniq(), l.in.single.text(l.uniq()), l.orc.libText, client.SolveOptions{})
	if _, err := sess.Resolve(l.ctx); err != nil {
		return fmt.Errorf("session create: %w", err)
	}
	k := 0
	return traced("client.session_patch", func(ctx context.Context) error {
		k++
		_, err := sess.Patch(ctx, client.SinkPatch(l.in.patchSink, l.in.patchRAT+0.125*float64(k), l.in.patchCap))
		return err
	})
}

// traceJSON is the subset of a /debug/traces entry the benchmark reads.
type traceJSON struct {
	Trace      string         `json:"trace"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs"`
	Spans      []struct {
		Name       string  `json:"name"`
		StartMS    float64 `json:"start_ms"`
		DurationMS float64 `json:"duration_ms"`
	} `json:"spans"`
}

// childSpans reads the child's retained traces, grafts each one under the
// client span that sent it (as server.request with its stage spans below),
// and reports the stage medians of the uncached /v1/solve requests.
func (l *layerRun) childSpans(ch *child, traceOf map[int]string) error {
	resp, err := http.Get(ch.baseURL + "/debug/traces")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var body struct {
		Traces []traceJSON `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("/debug/traces: %w", err)
	}
	byID := map[string]*traceJSON{}
	stages := map[string][]float64{}
	for i := range body.Traces {
		t := &body.Traces[i]
		byID[t.Trace] = t
		if t.Name != "POST /v1/solve" || t.Attrs["cached"] == true {
			continue
		}
		stages["request"] = append(stages["request"], t.DurationMS)
		for _, s := range t.Spans[1:] { // Spans[0] is the request's root
			stages[s.Name] = append(stages[s.Name], s.DurationMS)
		}
	}
	parents := map[int]string{}
	for _, s := range l.rec.spans {
		if s.Parent == "" {
			parents[s.ID] = s.Name
		}
	}
	grafted := 0
	for id, tid := range traceOf {
		t := byID[tid]
		if t == nil {
			continue
		}
		grafted++
		at := func(offMS float64) time.Time { return t.Start.Add(time.Duration(offMS * float64(time.Millisecond))) }
		l.rec.add(id, "server.request", parents[id], t.Start, at(t.DurationMS))
		for _, s := range t.Spans[1:] { // Spans[0] is server.request itself
			l.rec.add(id, "server."+s.Name, "server.request", at(s.StartMS), at(s.StartMS+s.DurationMS))
		}
	}
	l.notes.printf("grafted %d server traces under client spans (%d retained by the child)", grafted, len(body.Traces))
	for _, name := range []string{"cache_lookup", "admission", "engine_run", "encode", "request"} {
		if len(stages[name]) == 0 {
			return fmt.Errorf("/debug/traces: no %q spans on uncached solves", name)
		}
		l.set("server.span."+name+"_ms", median(stages[name]), "ms")
	}
	return nil
}

// cacheCounts reads cache_hits and cache_misses from the child's /metrics.
func (l *layerRun) cacheCounts(c *client.Client) (hits, misses float64, err error) {
	m, err := c.Metrics(l.ctx)
	if err != nil {
		return 0, 0, err
	}
	if err := json.Unmarshal(m["cache_hits"], &hits); err != nil {
		return 0, 0, fmt.Errorf("/metrics cache_hits: %w", err)
	}
	if err := json.Unmarshal(m["cache_misses"], &misses); err != nil {
		return 0, 0, fmt.Errorf("/metrics cache_misses: %w", err)
	}
	return hits, misses, nil
}

// serve sends one request to an in-process handler and checks for 200.
func serve(h http.Handler, method, path string, body []byte) error {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rr.Code != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, rr.Code, strings.TrimSpace(rr.Body.String()))
	}
	return nil
}

// handlers times the in-process HTTP handler of a default-config server
// on the solve, batch and session endpoints. Request bodies are encoded
// outside the timed span.
func (l *layerRun) handlers() error {
	srv := server.New(server.Config{})
	defer srv.Close()
	h := srv.Handler()
	timed := func(name, method, path string, body func() []byte) error {
		start := time.Now()
		for i := 0; i < 5 || time.Since(start) < l.slice; i++ {
			b := body()
			if err := l.rec.time(name, func() error { return serve(h, method, path, b) }); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		l.set(name+"_ms", median(l.rec.durations(name)), "ms")
		return nil
	}
	mustJSON := func(v any) []byte { b, _ := json.Marshal(v); return b }
	if err := timed("server.handler_solve", "POST", "/v1/solve", func() []byte {
		return mustJSON(client.SolveRequest{Net: l.in.single.text(l.uniq()), Library: l.orc.libText})
	}); err != nil {
		return err
	}
	if err := timed("server.handler_batch", "POST", "/v1/batch", func() []byte {
		req := client.BatchRequest{Library: l.orc.libText}
		for _, r := range l.in.batch {
			req.Nets = append(req.Nets, r.text(l.uniq()))
		}
		return mustJSON(req)
	}); err != nil {
		return err
	}
	sessPath := "/v1/sessions/layer"
	if err := serve(h, "PUT", sessPath, mustJSON(client.SessionRequest{Net: l.in.single.text(l.uniq()), Library: l.orc.libText})); err != nil {
		return err
	}
	k := 0
	return timed("server.handler_session", "PUT", sessPath, func() []byte {
		k++
		return mustJSON(client.SessionRequest{Patches: []client.SessionPatch{
			client.SinkPatch(l.in.patchSink, l.in.patchRAT+0.125*float64(k), l.in.patchCap)}})
	})
}

// parse times the netlist layer: the net and library parsers the solve
// handler runs first.
func (l *layerRun) parse() error {
	text := l.in.single.text(l.uniq())
	parseNet := func() error { _, err := bufferkit.ParseNet(strings.NewReader(text)); return err }
	if err := l.rec.repeat("netlist.parse_net", l.slice, 5, func(int) error { return parseNet() }); err != nil {
		return err
	}
	if err := l.rec.repeat("netlist.parse_lib", l.slice/4, 20, func(int) error {
		_, err := bufferkit.ParseLibrary(strings.NewReader(l.orc.libText))
		return err
	}); err != nil {
		return err
	}
	l.set("netlist.parse_net_ms", median(l.rec.durations("netlist.parse_net")), "ms")
	l.set("netlist.parse_lib_ms", median(l.rec.durations("netlist.parse_lib")), "ms")
	l.set("netlist.parse_net_allocs", testing.AllocsPerRun(5, func() { parseNet() }), "count")
	return nil
}

// facade times Solver.Run (with the solver built and closed around it, as
// the handler does) against a warm core.Engine run on the same net, reads
// the engine's work counters, and times Solver.RunBatch on the workload's
// batch.
func (l *layerRun) facade() error {
	net := l.in.single.net
	var st bufferkit.Stats
	if err := l.rec.repeat("bufferkit.solver_run", l.slice, 5, func(int) error {
		s, err := bufferkit.NewSolver(bufferkit.WithLibrary(l.orc.lib), bufferkit.WithDriver(net.Driver), bufferkit.WithStats(true))
		if err != nil {
			return err
		}
		defer s.Close()
		res, err := s.Run(l.ctx, net.Tree)
		if err == nil {
			st = res.Stats
		}
		return err
	}); err != nil {
		return err
	}
	eng := core.NewEngine()
	if err := eng.Reset(net.Tree, l.orc.lib, core.Options{Driver: net.Driver}); err != nil {
		return err
	}
	res := &core.Result{}
	if err := l.rec.repeat("core.engine", l.slice, 5, func(int) error { return eng.Run(res) }); err != nil {
		return err
	}
	l.set("bufferkit.solver_run_ms", median(l.rec.durations("bufferkit.solver_run")), "ms")
	l.set("core.engine_ms", median(l.rec.durations("core.engine")), "ms")
	l.set("core.engine_allocs", testing.AllocsPerRun(5, func() { eng.Run(res) }), "count")
	eng.Release()

	bpos := float64(st.Positions) * float64(len(l.orc.lib))
	l.set("core.positions", float64(st.Positions), "count")
	l.set("core.sum_list_len", float64(st.SumListLen), "count")
	l.set("core.sum_hull_len", float64(st.SumHullLen), "count")
	l.set("core.betas_generated", float64(st.BetasGenerated), "count")
	l.set("core.betas_kept", float64(st.BetasKept), "count")
	l.set("core.hull_pruned", float64(st.HullPruned), "count")
	l.set("core.betas_per_bpos", float64(st.BetasGenerated)/max(bpos, 1), "ratio")
	l.set("core.beta_keep_frac", float64(st.BetasKept)/max(float64(st.BetasGenerated), 1), "ratio")

	trees := make([]*bufferkit.Tree, len(l.in.batch))
	for i, r := range l.in.batch {
		trees[i] = r.net.Tree
	}
	s, err := bufferkit.NewSolver(bufferkit.WithLibrary(l.orc.lib), bufferkit.WithDriver(driver))
	if err != nil {
		return err
	}
	defer s.Close()
	if err := l.rec.repeat("bufferkit.runbatch", l.slice, 3, func(int) error {
		_, err := s.RunBatch(l.ctx, trees)
		return err
	}); err != nil {
		return err
	}
	l.set("bufferkit.runbatch_nets_per_s", float64(len(trees))/(median(l.rec.durations("bufferkit.runbatch"))/1000), "1/s")
	return nil
}

// session times an incremental Session resolve after a single-sink patch
// against a full Solver.Run of the same patched net.
func (l *layerRun) session() error {
	net := l.in.single.net
	s, err := bufferkit.NewSolver(bufferkit.WithLibrary(l.orc.lib), bufferkit.WithDriver(net.Driver))
	if err != nil {
		return err
	}
	defer s.Close()
	sess, err := s.NewSession(net.Tree)
	if err != nil {
		return err
	}
	defer sess.Close()
	if _, err := sess.Resolve(l.ctx); err != nil {
		return err
	}
	v := l.in.single.names[l.in.patchSink]
	var recomputed []float64
	if err := l.rec.repeat("bufferkit.session_resolve", l.slice, 10, func(i int) error {
		_, err := sess.Patch(bufferkit.SinkDelta{Vertex: v, RAT: l.in.patchRAT + 0.125*float64(i+1), Cap: l.in.patchCap}).Resolve(l.ctx)
		recomputed = append(recomputed, float64(sess.Stats().LastRecomputed))
		return err
	}); err != nil {
		return err
	}
	patched := sess.Tree()
	if err := l.rec.repeat("bufferkit.cold_solve", l.slice, 5, func(int) error {
		_, err := s.Run(l.ctx, patched)
		return err
	}); err != nil {
		return err
	}
	resolve, cold := median(l.rec.durations("bufferkit.session_resolve")), median(l.rec.durations("bufferkit.cold_solve"))
	l.set("bufferkit.session_resolve_ms", resolve, "ms")
	l.set("core.session_recomputed_per_patch", median(recomputed), "count")
	l.set("bufferkit.cold_solve_ms", cold, "ms")
	l.set("eco.delta_speedup", cold/resolve, "ratio")
	return nil
}

// fleet measures the extra latency of a solve sent to the non-home node
// of a 2-node loopback fleet (replication factor 1, so exactly one node
// owns each digest), against the same kind of solve sent to the home node
// directly. Both are uncached.
func (l *layerRun) fleet() error {
	var urls []string
	var lns []net.Listener
	for range 2 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	clients := map[string]*client.Client{}
	for i, ln := range lns {
		srv := server.New(server.Config{Fleet: fleet.Config{Self: urls[i], Peers: urls, Replicas: 1}})
		hs := &http.Server{Handler: srv.Handler()}
		served := make(chan struct{})
		go func() { hs.Serve(ln); close(served) }()
		defer srv.Close()
		defer func() { hs.Close(); <-served }()
		c, err := client.New(urls[i])
		if err != nil {
			return err
		}
		clients[urls[i]] = c
	}
	ring, err := fleet.New(fleet.Config{Self: urls[0], Peers: urls, Replicas: 1})
	if err != nil {
		return err
	}
	defer ring.Close()
	solve := func(forward bool) error {
		text := l.in.single.text(l.uniq())
		key := cache.NewKey([]byte(text), []byte(l.orc.libText), "")
		home := ring.Owners(fleet.RouteKey(key.Net, key.Library))[0]
		target := home
		if forward {
			target = urls[0]
			if home == urls[0] {
				target = urls[1]
			}
		}
		_, err := clients[target].Solve(l.ctx, client.SolveRequest{Net: text, Library: l.orc.libText})
		return err
	}
	start := time.Now()
	for i := 0; i < 6 || time.Since(start) < l.slice; i++ {
		if err := l.rec.time("fleet.direct_solve", func() error { return solve(false) }); err != nil {
			return fmt.Errorf("fleet direct solve: %w", err)
		}
		if err := l.rec.time("fleet.forwarded_solve", func() error { return solve(true) }); err != nil {
			return fmt.Errorf("fleet forwarded solve: %w", err)
		}
	}
	l.set("fleet.forward_ms", median(l.rec.durations("fleet.forwarded_solve"))-median(l.rec.durations("fleet.direct_solve")), "ms")
	return nil
}

// selfTimes derives the per-layer self times from the isolated timings
// and prints them with the span self times.
func (l *layerRun) selfTimes() {
	g := func(name string) float64 { return l.m[name].Value }
	l.set("server.self_ms", g("server.handler_solve_ms")-g("netlist.parse_net_ms")-g("netlist.parse_lib_ms")-g("bufferkit.solver_run_ms"), "ms")
	l.notes.printf("self time (isolated calls): client+transport %.4f ms, server handler %.4f ms, netlist %.4f ms, facade %.4f ms, engine %.4f ms",
		g("client.solve_ms")-g("server.span.request_ms"), g("server.self_ms"),
		g("netlist.parse_net_ms")+g("netlist.parse_lib_ms"), g("bufferkit.solver_run_ms")-g("core.engine_ms"), g("core.engine_ms"))
	self := l.rec.selfTimes()
	var parts []string
	for _, name := range slices.Sorted(maps.Keys(self)) {
		parts = append(parts, fmt.Sprintf("%s %.4f", name, self[name]))
	}
	l.notes.printf("span self times (median ms): %s", strings.Join(parts, ", "))
}
