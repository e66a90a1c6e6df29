// Package segment implements wire segmenting in the spirit of Alpert &
// Devgan (DAC 1997): splitting tree edges into shorter segments whose
// junctions become legal buffer positions. Segmenting is how a routed
// topology with m sinks acquires its n ≫ m candidate buffer positions — the
// paper's 1944-sink test case has 33133 positions.
package segment

import (
	"fmt"
	"sort"

	"bufferkit/internal/tree"
)

// Split returns a copy of t in which the edge above each vertex v is divided
// into segs(v) equal RC segments; the segs(v)−1 new junction vertices are
// buffer positions. segs(v) < 1 is treated as 1 (no split). Existing
// vertices keep their kinds, parameters and buffer-position flags.
func Split(t *tree.Tree, segs func(v int) int) (*tree.Tree, error) {
	b := tree.NewBuilder()
	// old vertex id -> new vertex id. Vertex 0 maps to 0.
	idMap := make([]int, t.Len())
	for v := 1; v < t.Len(); v++ {
		vert := t.Verts[v]
		k := segs(v)
		if k < 1 {
			k = 1
		}
		parent := idMap[vert.Parent]
		r, c := vert.EdgeR/float64(k), vert.EdgeC/float64(k)
		for i := 0; i < k-1; i++ {
			parent = b.AddBufferPos(parent, r, c)
		}
		var id int
		switch vert.Kind {
		case tree.Sink:
			id = b.AddSinkPol(parent, r, c, vert.Cap, vert.RAT, vert.Pol)
		case tree.Internal:
			if vert.BufferOK {
				if vert.Allowed != nil {
					id = b.AddBufferPosRestricted(parent, r, c, vert.Allowed)
				} else {
					id = b.AddBufferPos(parent, r, c)
				}
			} else {
				id = b.AddInternal(parent, r, c)
			}
		default:
			return nil, fmt.Errorf("segment: unexpected kind %v at vertex %d", vert.Kind, v)
		}
		if vert.Name != "" {
			b.SetName(id, vert.Name)
		}
		idMap[v] = id
	}
	return b.Build()
}

// Uniform splits every edge into k segments.
func Uniform(t *tree.Tree, k int) (*tree.Tree, error) {
	return Split(t, func(int) int { return k })
}

// ToPositions segments edges proportionally to their capacitance (a proxy
// for length) so the result has approximately target buffer positions in
// total, counting positions that already exist. Edges with zero capacitance
// are not split.
func ToPositions(t *tree.Tree, target int) (*tree.Tree, error) {
	existing := t.NumBufferPositions()
	extra := target - existing
	if extra <= 0 {
		return t.Clone(), nil
	}
	total := t.TotalWireCap()
	if total <= 0 {
		return nil, fmt.Errorf("segment: tree has no wire capacitance to segment")
	}
	// Largest-remainder apportionment of `extra` new junctions over edges:
	// floor the quotas, then hand the leftover junctions to the edges with
	// the largest fractional remainders. The remainders sum to the
	// leftover, so one sorted pass always suffices.
	n := t.Len()
	segs := make([]int, n)
	type rem struct {
		v int
		r float64
	}
	rems := make([]rem, 0, n-1)
	assigned := 0
	for v := 1; v < n; v++ {
		quota := float64(extra) * t.Verts[v].EdgeC / total
		segs[v] = int(quota)
		assigned += segs[v]
		if t.Verts[v].EdgeC > 0 {
			rems = append(rems, rem{v, quota - float64(segs[v])})
		}
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].r != rems[j].r {
			return rems[i].r > rems[j].r
		}
		return rems[i].v < rems[j].v
	})
	for i := 0; assigned < extra && i < len(rems); i++ {
		segs[rems[i].v]++
		assigned++
	}
	return Split(t, func(v int) int { return segs[v] + 1 })
}
