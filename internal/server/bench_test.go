package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bufferkit"
)

// benchBody builds the /v1/solve payload once.
func benchBody(b *testing.B) []byte {
	body, err := json.Marshal(solveRequest{
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
	body, err := json.Marshal(solveRequest{
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
