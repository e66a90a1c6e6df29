// Package tree provides the routing-tree substrate for buffer insertion.
//
// A net is a rooted tree T = (V, E). The root is the source (driver pin),
// leaves are sinks with a load capacitance and a required arrival time (RAT),
// and internal vertices either mark legal buffer positions or are plain
// branch/via points. Each edge carries lumped wire resistance and capacitance.
//
// Units follow the repository convention: resistance kΩ, capacitance fF,
// time ps (kΩ·fF = ps), distance µm.
package tree

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"bufferkit/internal/solvererr"
)

// Kind classifies a vertex of the routing tree.
type Kind uint8

const (
	// Source is the root of the tree, the net's driver pin.
	Source Kind = iota
	// Sink is a leaf with load capacitance and required arrival time.
	Sink
	// Internal is a non-root, non-leaf vertex: a branch point, a via, or a
	// legal buffer position (when BufferOK is set).
	Internal
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Source:
		return "source"
	case Sink:
		return "sink"
	case Internal:
		return "internal"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Polarity is the signal polarity a sink requires, relative to the signal
// the source drives. Libraries containing inverters can satisfy Negative
// sinks; libraries of plain buffers cannot.
type Polarity uint8

const (
	// Positive means the sink wants the signal as driven by the source.
	Positive Polarity = iota
	// Negative means the sink wants the inverted signal.
	Negative
)

// String implements fmt.Stringer.
func (p Polarity) String() string {
	if p == Negative {
		return "-"
	}
	return "+"
}

// Vertex is one node of a routing tree. The zero value is a plain internal
// vertex that does not allow buffering.
type Vertex struct {
	Kind Kind
	// Name is an optional human-readable label used by netlist I/O.
	Name string

	// Cap is the sink load capacitance in fF. Sinks only.
	Cap float64
	// RAT is the required arrival time in ps. Sinks only.
	RAT float64
	// Pol is the required signal polarity. Sinks only.
	Pol Polarity

	// BufferOK marks a legal buffer position. Internal vertices only.
	BufferOK bool
	// Allowed optionally restricts which library types may be used at this
	// position (indices into the library). nil or empty means every type is
	// allowed. Ignored unless BufferOK is set.
	Allowed []int

	// Parent is the index of the parent vertex, or -1 for the root.
	Parent int
	// EdgeR and EdgeC are the lumped resistance (kΩ) and capacitance (fF)
	// of the edge from Parent to this vertex. Zero for the root.
	EdgeR, EdgeC float64
}

// Tree is a rooted routing tree stored as a parent-pointer vertex slice.
// Vertex 0 is always the source. Construct trees with a Builder and treat
// them as immutable afterwards; the insertion algorithms never mutate them.
type Tree struct {
	Verts []Vertex

	// kids and off hold the adjacency in CSR form, derived once by the
	// Builder so traversals do not rebuild it: the children of v are
	// kids[off[v]:off[v+1]], in increasing index order. Two flat slices
	// replace one slice per internal vertex; int32 offsets bound a tree
	// to 2^31 vertices, hundreds of GB of Vertex data.
	kids []int
	off  []int32
	// postorder caches PostOrder.
	postorder []int
}

// Len returns the number of vertices.
func (t *Tree) Len() int { return len(t.Verts) }

// Children returns the child indices of vertex v. The returned slice is
// shared; callers must not modify it.
func (t *Tree) Children(v int) []int {
	lo, hi := t.off[v], t.off[v+1]
	return t.kids[lo:hi:hi]
}

// IsLeaf reports whether v has no children.
func (t *Tree) IsLeaf(v int) bool { return t.off[v] == t.off[v+1] }

// PostOrder returns the vertex indices in post order (children before
// parents, root last). The returned slice is shared; callers must not
// modify it. The order is computed iteratively so arbitrarily deep chains
// (e.g. 2-pin nets with tens of thousands of segments) are safe.
func (t *Tree) PostOrder() []int { return t.postorder }

// Sinks returns the indices of all sink vertices in increasing order.
func (t *Tree) Sinks() []int {
	var s []int
	for i := range t.Verts {
		if t.Verts[i].Kind == Sink {
			s = append(s, i)
		}
	}
	return s
}

// BufferPositions returns the indices of all vertices with BufferOK set,
// in increasing order.
func (t *Tree) BufferPositions() []int {
	var s []int
	for i := range t.Verts {
		if t.Verts[i].BufferOK {
			s = append(s, i)
		}
	}
	return s
}

// NumSinks returns the number of sink vertices.
func (t *Tree) NumSinks() int {
	n := 0
	for i := range t.Verts {
		if t.Verts[i].Kind == Sink {
			n++
		}
	}
	return n
}

// NumBufferPositions returns the number of legal buffer positions.
func (t *Tree) NumBufferPositions() int {
	n := 0
	for i := range t.Verts {
		if t.Verts[i].BufferOK {
			n++
		}
	}
	return n
}

// TotalWireCap returns the sum of all edge capacitances in fF.
func (t *Tree) TotalWireCap() float64 {
	c := 0.0
	for i := range t.Verts {
		c += t.Verts[i].EdgeC
	}
	return c
}

// Clone returns a copy of the tree whose vertices, Allowed lists included,
// can be changed without touching the original. The adjacency and post
// order, which no caller may modify, are shared, so Clone allocates a
// constant number of times plus one per Allowed list.
func (t *Tree) Clone() *Tree {
	nt := &Tree{
		Verts:     make([]Vertex, len(t.Verts)),
		kids:      t.kids,
		off:       t.off,
		postorder: t.postorder,
	}
	copy(nt.Verts, t.Verts)
	for i := range nt.Verts {
		if a := nt.Verts[i].Allowed; a != nil {
			nt.Verts[i].Allowed = append([]int(nil), a...)
		}
	}
	return nt
}

// Builder incrementally constructs a Tree. Vertices must be added
// top-down: the parent of every vertex must already exist.
type Builder struct {
	verts []Vertex
	err   error
}

// NewBuilder returns a Builder whose vertex 0 is the source.
func NewBuilder() *Builder {
	return &Builder{verts: []Vertex{{Kind: Source, Parent: -1, Name: "src"}}}
}

// Grow makes room for n more vertices, so a caller that knows the size of
// the tree, such as a parser that has counted its lines, adds them without
// reallocating.
func (b *Builder) Grow(n int) {
	if n > 0 {
		b.verts = slices.Grow(b.verts, n)
	}
}

func (b *Builder) setErr(err error) int {
	if b.err == nil {
		b.err = err
	}
	return -1
}

func (b *Builder) add(v Vertex) int {
	if b.err != nil {
		return -1
	}
	if v.Parent < 0 || v.Parent >= len(b.verts) {
		return b.setErr(fmt.Errorf("tree: vertex %d: parent %d does not exist", len(b.verts), v.Parent))
	}
	if b.verts[v.Parent].Kind == Sink {
		return b.setErr(fmt.Errorf("tree: vertex %d: parent %d is a sink", len(b.verts), v.Parent))
	}
	if err := checkValues(len(b.verts), &v); err != nil {
		return b.setErr(err)
	}
	b.verts = append(b.verts, v)
	return len(b.verts) - 1
}

// AddSink adds a sink below parent with the given edge RC, load capacitance
// and RAT, returning its index.
func (b *Builder) AddSink(parent int, edgeR, edgeC, cap, rat float64) int {
	return b.add(Vertex{Kind: Sink, Parent: parent, EdgeR: edgeR, EdgeC: edgeC, Cap: cap, RAT: rat})
}

// AddSinkPol is AddSink with an explicit polarity requirement.
func (b *Builder) AddSinkPol(parent int, edgeR, edgeC, cap, rat float64, pol Polarity) int {
	id := b.AddSink(parent, edgeR, edgeC, cap, rat)
	if id >= 0 {
		b.verts[id].Pol = pol
	}
	return id
}

// AddInternal adds a plain internal vertex (branch point) below parent.
func (b *Builder) AddInternal(parent int, edgeR, edgeC float64) int {
	return b.add(Vertex{Kind: Internal, Parent: parent, EdgeR: edgeR, EdgeC: edgeC})
}

// AddBufferPos adds an internal vertex that is a legal buffer position.
func (b *Builder) AddBufferPos(parent int, edgeR, edgeC float64) int {
	return b.add(Vertex{Kind: Internal, Parent: parent, EdgeR: edgeR, EdgeC: edgeC, BufferOK: true})
}

// AddBufferPosRestricted adds a buffer position allowing only the given
// library type indices.
func (b *Builder) AddBufferPosRestricted(parent int, edgeR, edgeC float64, allowed []int) int {
	id := b.AddBufferPos(parent, edgeR, edgeC)
	if id >= 0 {
		b.verts[id].Allowed = append([]int(nil), allowed...)
	}
	return id
}

// Err returns the first construction error, or nil. Once it is set every
// Add method returns -1 and Build reports it.
func (b *Builder) Err() error { return b.err }

// SetName labels vertex v (for netlist round-trips and diagnostics).
func (b *Builder) SetName(v int, name string) {
	if b.err == nil && v >= 0 && v < len(b.verts) {
		b.verts[v].Name = name
	}
}

// Build finalizes the tree, validating its structure.
func (b *Builder) Build() (*Tree, error) {
	if b.err != nil {
		return nil, b.err
	}
	t := &Tree{Verts: b.verts}
	if err := t.finalize(); err != nil {
		return nil, err
	}
	b.verts = nil // builder is spent; prevent aliasing
	return t, nil
}

// MustBuild is Build that panics on error, for tests and generators that
// construct trees from trusted inputs.
func (b *Builder) MustBuild() *Tree {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// finalize derives adjacency, computes post order, and validates.
func (t *Tree) finalize() error {
	n := len(t.Verts)
	if n == 0 || t.Verts[0].Kind != Source || t.Verts[0].Parent != -1 {
		return errors.New("tree: vertex 0 must be the source with parent -1")
	}
	// Count each vertex's children into off[v+1] and prefix-sum, so off[v]
	// is where v's children start. Placing child i advances off[p]; after
	// the fill off[v] is v's end, and shifting by one restores the starts.
	off := make([]int32, n+1)
	for i := 1; i < n; i++ {
		p := t.Verts[i].Parent
		if p < 0 || p >= n {
			return fmt.Errorf("tree: vertex %d: parent %d out of range", i, p)
		}
		if p >= i {
			return fmt.Errorf("tree: vertex %d: parent %d not topologically earlier", i, p)
		}
		off[p+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	kids := make([]int, n-1)
	for i := 1; i < n; i++ {
		p := t.Verts[i].Parent
		kids[off[p]] = i
		off[p]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	t.kids, t.off = kids, off
	for i := 0; i < n; i++ {
		v := &t.Verts[i]
		switch v.Kind {
		case Source:
			if i != 0 {
				return fmt.Errorf("tree: vertex %d: extra source", i)
			}
			if v.BufferOK {
				return errors.New("tree: the source is the driver and cannot be a buffer position")
			}
		case Sink:
			if !t.IsLeaf(i) {
				return fmt.Errorf("tree: sink %d has children", i)
			}
			if v.BufferOK {
				return fmt.Errorf("tree: sink %d cannot be a buffer position", i)
			}
		case Internal:
			if t.IsLeaf(i) {
				return fmt.Errorf("tree: internal vertex %d is a leaf (leaves must be sinks)", i)
			}
		default:
			return fmt.Errorf("tree: vertex %d: unknown kind %d", i, v.Kind)
		}
		if err := checkValues(i, v); err != nil {
			return err
		}
	}
	if t.IsLeaf(0) {
		return errors.New("tree: source has no children")
	}
	t.computePostOrder()
	return nil
}

// checkValues rejects vertex i when an electrical value is negative or not
// finite, as a *solvererr.ValidationError naming the vertex and the Vertex
// field. NaN fails every ordered comparison, so a bare "< 0" test would let
// it through to the dynamic program, which then reports a misleading
// infeasibility.
func checkValues(i int, v *Vertex) error {
	bad := func(field, format string, args ...any) error {
		return solvererr.Validation("tree", field, format, args...).AtVertex(i)
	}
	switch {
	case !finite(v.EdgeR):
		return bad("EdgeR", "non-finite edge resistance %g", v.EdgeR)
	case !finite(v.EdgeC):
		return bad("EdgeC", "non-finite edge capacitance %g", v.EdgeC)
	case v.EdgeR < 0:
		return bad("EdgeR", "negative edge RC (%g, %g)", v.EdgeR, v.EdgeC)
	case v.EdgeC < 0:
		return bad("EdgeC", "negative edge RC (%g, %g)", v.EdgeR, v.EdgeC)
	}
	if v.Kind != Sink {
		return nil
	}
	switch {
	case !finite(v.Cap):
		return bad("Cap", "non-finite capacitance %g", v.Cap)
	case v.Cap < 0:
		return bad("Cap", "negative capacitance %g", v.Cap)
	case !finite(v.RAT):
		return bad("RAT", "non-finite RAT %g", v.RAT)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// computePostOrder fills t.postorder iteratively (explicit stack) so deep
// chains cannot overflow the goroutine stack.
func (t *Tree) computePostOrder() {
	n := len(t.Verts)
	t.postorder = make([]int, 0, n)
	type frame struct {
		v    int
		next int // next child index to visit
	}
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{v: 0})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		cs := t.Children(f.v)
		if f.next < len(cs) {
			c := cs[f.next]
			f.next++
			stack = append(stack, frame{v: c})
			continue
		}
		t.postorder = append(t.postorder, f.v)
		stack = stack[:len(stack)-1]
	}
}

// Validate re-checks all structural invariants. Freshly built trees always
// pass; it exists so generators, parsers and property tests can assert
// integrity after transformation.
func (t *Tree) Validate() error {
	c := &Tree{Verts: t.Verts}
	return c.finalize()
}

// Depth returns the maximum number of edges on any root-to-leaf path.
func (t *Tree) Depth() int {
	depth := make([]int, len(t.Verts))
	max := 0
	// Parent indices are topologically ordered, so a forward scan works.
	for i := 1; i < len(t.Verts); i++ {
		depth[i] = depth[t.Verts[i].Parent] + 1
		if depth[i] > max {
			max = depth[i]
		}
	}
	return max
}
