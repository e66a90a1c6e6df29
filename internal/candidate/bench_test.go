package candidate

// The DESIGN.md §6 ablations: the paper's add-buffer and beta-merge
// operations against the Lillis-style per-type and per-beta alternatives,
// on synthetic lists whose lengths span the range the industrial nets
// produce. Run them with
// `go test -run xxx -bench Ablation -benchtime 1x ./internal/candidate`.

import (
	"fmt"
	"math/rand"
	"testing"

	"bufferkit/internal/library"
)

// BenchmarkAblationAddBuffer isolates the paper's core claim at the data-
// structure level: finding the best candidate for every one of b buffer
// types via b full linear scans (Lillis) versus one Graham scan plus a
// monotone pointer walk (the paper). List lengths span the range the
// industrial nets produce.
func BenchmarkAblationAddBuffer(b *testing.B) {
	lib := library.Generate(64)
	orderR := lib.ByRDesc(nil)
	for _, k := range []int{64, 256, 1024, 4096} {
		pairs := syntheticList(k)
		b.Run(fmt.Sprintf("k%d/linearscan", k), func(b *testing.B) {
			l := SoAFromPairs(pairs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for ti := range lib {
					if _, _, _, ok := l.Best(lib[ti].R); !ok {
						b.Fatal("empty list")
					}
				}
			}
		})
		b.Run(fmt.Sprintf("k%d/hullwalk", k), func(b *testing.B) {
			l := SoAFromPairs(pairs)
			h := &Hull{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Reset()
				l.AppendHullInto(h)
				p := 0
				for _, ti := range orderR {
					p = h.Walk(p, lib[ti].R)
				}
			}
		})
	}
}

// BenchmarkAblationBetaInsert compares the paper's single-pass O(k+b) beta
// merge (Theorem 2) with Lillis-style per-beta O(k) insertion.
func BenchmarkAblationBetaInsert(b *testing.B) {
	for _, k := range []int{256, 4096} {
		pairs := syntheticList(k)
		betas := syntheticBetas(64, pairs[k-1].C)
		b.Run(fmt.Sprintf("k%d/mergebetas", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l := SoAFromPairs(pairs)
				l.MergeBetas(betas)
			}
		})
		b.Run(fmt.Sprintf("k%d/insertone", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l := SoAFromPairs(pairs)
				for j := range betas {
					l.InsertOne(betas[j].Q, betas[j].C, 0)
				}
			}
		})
	}
}

// syntheticList builds a deterministic strictly increasing (Q, C) set with
// a mildly concave profile plus noise, so hulls are nontrivial.
func syntheticList(k int) []Pair {
	rng := rand.New(rand.NewSource(int64(k)))
	pairs := make([]Pair, k)
	q, c := 0.0, 0.0
	for i := range pairs {
		q += 0.1 + rng.Float64()*10/float64(1+i/8)
		c += 0.1 + rng.Float64()
		pairs[i] = Pair{Q: q, C: c}
	}
	return pairs
}

// syntheticBetas spreads nb buffered candidates across the list's full
// capacitance range (cmax), so per-beta insertion depth matches a library
// whose input capacitances interleave with the whole candidate set.
func syntheticBetas(nb int, cmax float64) []Beta {
	rng := rand.New(rand.NewSource(int64(nb) * 7))
	betas := make([]Beta, nb)
	q, c := 5.0, 0.5
	for i := range betas {
		betas[i] = Beta{Q: q, C: c}
		q += 0.2 + rng.Float64()*8
		c += cmax / float64(nb) * (0.5 + rng.Float64())
	}
	return betas
}
