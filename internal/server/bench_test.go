package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bufferkit"
	"bufferkit/internal/api"
)

// benchBody builds the /v1/solve payload once.
func benchBody(b *testing.B) []byte {
	body, err := json.Marshal(api.SolveRequest{
		Net:     readTestdata(b, "line.net"),
		Library: readTestdata(b, "lib8.buf"),
	})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func benchSolve(b *testing.B, cfg Config) {
	h := New(cfg).Handler()
	body := benchBody(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkServerSolve measures the full uncached request path: JSON
// decode, net/library parse, engine run on a pooled warm engine, JSON
// encode. Caching is disabled so every iteration solves.
func BenchmarkServerSolve(b *testing.B) {
	benchSolve(b, Config{CacheEntries: -1})
}

// industrialBody builds the /v1/solve body of perfbench's industrial
// workload: the paper's m=337, n=5729 net under a b=16 library, about
// 513 KB of JSON, most of it the escaped .net text.
func industrialBody(tb testing.TB) []byte {
	tb.Helper()
	tr, err := bufferkit.IndustrialNet(337, 5729, 4)
	if err != nil {
		tb.Fatal(err)
	}
	var lib strings.Builder
	if err := bufferkit.WriteLibrary(&lib, bufferkit.GenerateLibrary(16)); err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(api.SolveRequest{
		Net:     netText(tb, tr, "ind1_0", bufferkit.Driver{R: 0.2, K: 15}),
		Library: lib.String(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// postSolve sends one /v1/solve body to h and fails on a non-200 reply.
func postSolve(tb testing.TB, h http.Handler, body []byte) {
	req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

// BenchmarkServerSolveIndustrial measures the uncached /v1/solve of the
// industrial net in the handler: body read and decode, cache key, net
// parse, the engine run (about 10 ms of it) and the reply encode.
func BenchmarkServerSolveIndustrial(b *testing.B) {
	h := New(Config{CacheEntries: -1}).Handler()
	body := industrialBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postSolve(b, h, body)
	}
}

// TestSolveRequestAllocs bounds one uncached /v1/solve of the industrial
// net, body read to reply written, at 160 allocations (136 today).
// Decoding the body with encoding/json and encoding the placement by
// reflection, two allocations per placed buffer, cost about 1,850. The
// collector is off while it counts: a collection empties the engine pool,
// and the next solve's engine rebuild (~600 allocations) is the pool's
// cost, not the request's.
func TestSolveRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries, so pooled engines are rebuilt and the count is not the server's")
	}
	h := New(Config{CacheEntries: -1}).Handler()
	body := industrialBody(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(5, func() { postSolve(t, h, body) })
	if allocs > 160 {
		t.Fatalf("one industrial /v1/solve allocates %.0f times, want at most 160", allocs)
	}
}

// BenchmarkServerSolveCached measures the warm cache-hit path: digest,
// LRU lookup, JSON encode — no parsing, no engine run.
func BenchmarkServerSolveCached(b *testing.B) {
	benchSolve(b, Config{})
}

// BenchmarkServerOverload drives distinct (cache-busting) solves at a
// deliberately undersized server — 2 engine slots, a short queue — from
// many more client goroutines than slots, the 4×-overload shape of the
// chaos suite. Every request must terminate as a result or a clean 429;
// sheds/op reports how much of the offered load the admission controller
// rejected instead of queueing unboundedly.
func BenchmarkServerOverload(b *testing.B) {
	h := New(Config{
		MaxConcurrent: 2,
		MaxQueue:      4,
		QueueTimeout:  time.Millisecond,
		CacheEntries:  -1,
	}).Handler()
	// A net heavy enough (~ms) that 4× offered load genuinely contends for
	// the 2 slots; a name placeholder makes each request a distinct cache
	// key without rebuilding the net text per iteration.
	const placeholder = "PLACEHOLDER"
	tr := bufferkit.TwoPinNet(50000, 2000, 10, 1e6, bufferkit.PaperWire())
	body, err := json.Marshal(api.SolveRequest{
		Net:     netText(b, tr, placeholder, bufferkit.Driver{R: 0.2, K: 15}),
		Library: readTestdata(b, "lib8.buf"),
	})
	if err != nil {
		b.Fatal(err)
	}
	template := string(body)
	var seq, sheds, solved atomic.Int64
	b.SetParallelism(4) // 4×GOMAXPROCS goroutines vs 2 slots
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			body := strings.Replace(template, placeholder,
				fmt.Sprintf("net%d", seq.Add(1)), 1)
			req := httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK:
				solved.Add(1)
			case http.StatusTooManyRequests:
				if rec.Header().Get("Retry-After") == "" {
					b.Errorf("429 without Retry-After")
				}
				sheds.Add(1)
			default:
				b.Errorf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(sheds.Load())/float64(b.N), "sheds/op")
	b.ReportMetric(float64(solved.Load())/float64(b.N), "solved/op")
}

// sessionPatchBench opens an ECO session on the 729-sink ternary bushy net
// under the b=16 library, as the eco perfbench workload does, and returns
// the handler and n request bodies: body i is a sink patch with a RAT
// never used before, so every PUT misses the cache and re-solves.
func sessionPatchBench(tb testing.TB, n int) (http.Handler, [][]byte) {
	tb.Helper()
	tr := bufferkit.BalancedNet(3, 6, 400, 8, 1200, bufferkit.PaperWire())
	var lib strings.Builder
	if err := bufferkit.WriteLibrary(&lib, bufferkit.GenerateLibrary(16)); err != nil {
		tb.Fatal(err)
	}
	h := New(Config{}).Handler()
	create := api.SessionRequest{Net: netText(tb, tr, "bushy", bufferkit.Driver{R: 0.2, K: 15}), Library: lib.String()}
	if rec := request(tb, h, "PUT", "/v1/sessions/bench", create); rec.Code != http.StatusOK {
		tb.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	sinks := tr.Sinks()
	bodies := make([][]byte, n)
	for i := range bodies {
		rat, cap := 1000+float64(i)/8, 4+float64(i%97)/8
		body, err := json.Marshal(api.SessionRequest{Patches: []api.SessionPatch{
			{Kind: "sink", Vertex: vertexName(tr, sinks[i%len(sinks)]), RAT: &rat, Cap: &cap},
		}})
		if err != nil {
			tb.Fatal(err)
		}
		bodies[i] = body
	}
	return h, bodies
}

// putSession sends one PUT to the bench session.
func putSession(tb testing.TB, h http.Handler, body []byte) {
	req := httptest.NewRequest("PUT", "/v1/sessions/bench", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("patch: %d %s", rec.Code, rec.Body.String())
	}
}

// BenchmarkServerSessionPatch measures one ECO patch end to end in the
// handler: decode, patch, the cache key over the kept net text, the
// incremental re-solve and the JSON encode. Every op is a distinct sink
// patch, so none is a cache hit.
func BenchmarkServerSessionPatch(b *testing.B) {
	h, bodies := sessionPatchBench(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		putSession(b, h, bodies[i])
	}
}

// TestSessionPatchAllocs bounds one ECO patch PUT on the bushy net at
// 150 allocations (132 today, 137 under -race). Rendering the whole
// 1,093-vertex net to text for the cache key, as each patch once did,
// costs ~13,000, and encoding the placement by reflection ~140 more.
func TestSessionPatchAllocs(t *testing.T) {
	const runs = 20
	h, bodies := sessionPatchBench(t, runs+1)
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		putSession(t, h, bodies[i])
		i++
	})
	if allocs > 150 {
		t.Fatalf("one session patch PUT allocates %.0f times, want at most 150", allocs)
	}
}
