// Package delay evaluates buffered routing trees under the Elmore wire
// delay model and the linear buffer delay model used by the paper.
//
// It is the exact timing oracle of the repository: the dynamic-programming
// algorithms predict a slack, and tests assert that delay.Evaluate of the
// reconstructed placement reproduces that prediction bit-for-bit (the DP and
// the oracle perform the same floating-point operations in the same order up
// to associativity of independent sums).
package delay

import (
	"fmt"
	"math"
	"slices"

	"bufferkit/internal/library"
	"bufferkit/internal/tree"
)

// Driver models the net's source driver: a resistance R (kΩ) and intrinsic
// delay K (ps). The zero value is an ideal driver contributing no delay.
type Driver struct {
	R float64
	K float64
}

// WireDelay returns the Elmore delay R·(C/2 + cdown) of a wire with total
// resistance R and capacitance C driving a downstream load cdown.
func WireDelay(r, c, cdown float64) float64 { return r * (c/2 + cdown) }

// Placement assigns a buffer type to tree vertices: Placement[v] is an index
// into the library, or NoBuffer.
type Placement []int

// NoBuffer marks an unbuffered vertex in a Placement.
const NoBuffer = -1

// NewPlacement returns an all-unbuffered placement for n vertices.
func NewPlacement(n int) Placement {
	p := make(Placement, n)
	for i := range p {
		p[i] = NoBuffer
	}
	return p
}

// Reuse returns an all-unbuffered placement for n vertices, reusing p's
// backing array when its capacity suffices — the allocation-free reset the
// warm engines rely on.
func (p Placement) Reuse(n int) Placement {
	if cap(p) < n {
		return NewPlacement(n)
	}
	p = p[:n]
	for i := range p {
		p[i] = NoBuffer
	}
	return p
}

// Count returns the number of buffered vertices.
func (p Placement) Count() int {
	n := 0
	for _, b := range p {
		if b != NoBuffer {
			n++
		}
	}
	return n
}

// Cost returns the total library cost of the placement.
func (p Placement) Cost(lib library.Library) int {
	c := 0
	for _, b := range p {
		if b != NoBuffer {
			c += lib[b].Cost
		}
	}
	return c
}

// Result is the full timing picture of one placement.
type Result struct {
	// Slack is min over sinks of RAT − arrival, after the driver (if any).
	Slack float64
	// CriticalSink is the vertex index of the sink attaining Slack.
	CriticalSink int
	// Arrival[v] is the delay from the driver input to the signal at the
	// *input* of v (before any buffer placed at v).
	Arrival []float64
	// Load[v] is the capacitance driven by the buffer or wire output at v:
	// the sum over children edges of edge capacitance plus viewed child cap.
	Load []float64
	// RootCap is the capacitance the driver sees at the root.
	RootCap float64
	// Buffers is the number of buffers placed.
	Buffers int
	// PolarityViolations lists sinks whose polarity requirement is not met.
	PolarityViolations []int
}

// Evaluate computes exact Elmore timing of placement p on tree t.
// It validates that buffers appear only at legal positions with allowed
// types.
func Evaluate(t *tree.Tree, lib library.Library, p Placement, drv Driver) (*Result, error) {
	n := t.Len()
	if len(p) != n {
		return nil, fmt.Errorf("delay: placement length %d != tree size %d", len(p), n)
	}
	for v := 0; v < n; v++ {
		b := p[v]
		if b == NoBuffer {
			continue
		}
		if b < 0 || b >= len(lib) {
			return nil, fmt.Errorf("delay: vertex %d: buffer index %d out of library range", v, b)
		}
		vert := &t.Verts[v]
		if !vert.BufferOK {
			return nil, fmt.Errorf("delay: vertex %d is not a legal buffer position", v)
		}
		if len(vert.Allowed) > 0 && !slices.Contains(vert.Allowed, b) {
			return nil, fmt.Errorf("delay: vertex %d: buffer type %d not allowed here", v, b)
		}
	}

	res := &Result{
		Arrival:      make([]float64, n),
		Load:         make([]float64, n),
		CriticalSink: -1,
	}

	// view[v]: capacitance v presents to its parent edge.
	view := make([]float64, n)
	for _, v := range t.PostOrder() {
		vert := &t.Verts[v]
		if vert.Kind == tree.Sink {
			view[v] = vert.Cap
			continue
		}
		load := 0.0
		for _, c := range t.Children(v) {
			load += t.Verts[c].EdgeC + view[c]
		}
		res.Load[v] = load
		if b := p[v]; b != NoBuffer {
			view[v] = lib[b].Cin
			res.Buffers++
		} else {
			view[v] = load
		}
	}
	res.RootCap = res.Load[0]

	// Top-down arrival times and inverter parity. Vertex indices are
	// topologically ordered (parents first), so a forward scan suffices.
	parity := make([]uint8, n)
	out := make([]float64, n) // delay at the output side of v
	res.Arrival[0] = drv.K + drv.R*res.RootCap
	out[0] = res.Arrival[0]
	res.Slack = math.Inf(1)
	for v := 1; v < n; v++ {
		vert := &t.Verts[v]
		pnt := vert.Parent
		arr := out[pnt] + WireDelay(vert.EdgeR, vert.EdgeC, view[v])
		res.Arrival[v] = arr
		parity[v] = parity[pnt]
		if b := p[v]; b != NoBuffer {
			out[v] = arr + lib[b].Delay(res.Load[v])
			if lib[b].Inverting {
				parity[v] ^= 1
			}
		} else {
			out[v] = arr
		}
		if vert.Kind == tree.Sink {
			slack := vert.RAT - arr
			if slack < res.Slack {
				res.Slack = slack
				res.CriticalSink = v
			}
			want := uint8(0)
			if vert.Pol == tree.Negative {
				want = 1
			}
			if parity[v] != want {
				res.PolarityViolations = append(res.PolarityViolations, v)
			}
		}
	}
	return res, nil
}

// CriticalPath returns the vertex indices from the source to the critical
// sink of an evaluation, root first.
func (r *Result) CriticalPath(t *tree.Tree) []int {
	if r.CriticalSink < 0 {
		return nil
	}
	var rev []int
	for v := r.CriticalSink; v != -1; v = t.Verts[v].Parent {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
