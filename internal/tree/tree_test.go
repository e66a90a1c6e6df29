package tree

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildY returns the canonical Y-shaped test net:
//
//	src --(1)-- b1 --(2)-- s1
//	              \--(3)-- s2
func buildY(t *testing.T) *Tree {
	t.Helper()
	b := NewBuilder()
	v1 := b.AddBufferPos(0, 0.1, 10)
	b.AddSink(v1, 0.2, 20, 5, 1000)
	b.AddSink(v1, 0.3, 30, 7, 900)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuilderBasic(t *testing.T) {
	tr := buildY(t)
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.NumSinks() != 2 || tr.NumBufferPositions() != 1 {
		t.Fatalf("sinks=%d positions=%d, want 2 and 1", tr.NumSinks(), tr.NumBufferPositions())
	}
	if got := tr.Children(1); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Children(1) = %v, want [2 3]", got)
	}
	if tr.IsLeaf(1) || !tr.IsLeaf(2) {
		t.Fatal("leaf detection wrong")
	}
	if tr.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2", tr.Depth())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPostOrderChildrenBeforeParents(t *testing.T) {
	tr := buildY(t)
	po := tr.PostOrder()
	if len(po) != tr.Len() {
		t.Fatalf("postorder covers %d of %d vertices", len(po), tr.Len())
	}
	seen := make([]bool, tr.Len())
	for _, v := range po {
		for _, c := range tr.Children(v) {
			if !seen[c] {
				t.Fatalf("vertex %d visited before its child %d", v, c)
			}
		}
		seen[v] = true
	}
	if po[len(po)-1] != 0 {
		t.Fatalf("root not last in postorder: %v", po)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func(b *Builder)
		want string
	}{
		{"bad parent", func(b *Builder) { b.AddSink(5, 0, 0, 1, 0) }, "parent 5 does not exist"},
		{"sink parent", func(b *Builder) {
			s := b.AddSink(0, 0, 0, 1, 0)
			b.AddSink(s, 0, 0, 1, 0)
		}, "is a sink"},
		{"negative edge R", func(b *Builder) { b.AddSink(0, -1, 0, 1, 0) }, "negative edge RC"},
		{"negative cap", func(b *Builder) { b.AddSink(0, 0, 0, -2, 0) }, "negative capacitance"},
		{"internal leaf", func(b *Builder) { b.AddInternal(0, 1, 1) }, "is a leaf"},
		{"bare source", func(b *Builder) {}, "source has no children"},
		{"buffered source", func(b *Builder) {
			b.AddSink(0, 0, 0, 1, 0)
			b.verts[0].BufferOK = true
		}, "source is the driver"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			tc.f(b)
			_, err := b.Build()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestBuilderFirstErrorWins(t *testing.T) {
	b := NewBuilder()
	b.AddSink(9, 0, 0, 1, 0) // error 1
	b.AddSink(0, -1, 0, 1, 0)
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "parent 9") {
		t.Fatalf("err = %v, want the first error", err)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder().MustBuild()
}

func TestRestrictedBufferPos(t *testing.T) {
	b := NewBuilder()
	v := b.AddBufferPosRestricted(0, 1, 1, []int{0, 2})
	b.AddSink(v, 0, 0, 1, 0)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Verts[v].Allowed; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Allowed = %v, want [0 2]", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := buildY(t)
	tr.Verts[1].Allowed = []int{1}
	cl := tr.Clone()
	cl.Verts[1].Allowed[0] = 7
	cl.Verts[2].Cap = 99
	if tr.Verts[1].Allowed[0] != 1 || tr.Verts[2].Cap != 5 {
		t.Fatal("Clone shares state with original")
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
}

// chain returns a tree of n buffer positions in a line ending in a sink.
func chain(t *testing.T, n int) *Tree {
	t.Helper()
	b := NewBuilder()
	p := 0
	for range n {
		p = b.AddBufferPos(p, 0.001, 0.01)
	}
	b.AddSink(p, 0, 0, 1, 0)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCloneAllocsConstant: with the adjacency in two flat slices shared
// by the clone, Clone allocates the same few times for 4 vertices as for
// 10,000.
func TestCloneAllocsConstant(t *testing.T) {
	small, big := buildY(t), chain(t, 10_000)
	a := testing.AllocsPerRun(10, func() { small.Clone() })
	b := testing.AllocsPerRun(10, func() { big.Clone() })
	if a != b || a > 2 {
		t.Fatalf("Clone allocates %.0f times on 4 vertices and %.0f on 10,001, want the same count <= 2", a, b)
	}
}

// TestChildrenCannotOverwriteNeighbors: Children returns a view into the
// shared CSR slice whose capacity ends with the vertex's own children, so
// an append by a careless caller copies instead of overwriting the next
// vertex's children.
func TestChildrenCannotOverwriteNeighbors(t *testing.T) {
	b := NewBuilder()
	u := b.AddBufferPos(0, 1, 1)
	w := b.AddBufferPos(0, 1, 1)
	b.AddSink(u, 0, 0, 1, 0)
	b.AddSink(w, 0, 0, 1, 0)
	tr := b.MustBuild()
	_ = append(tr.Children(u), 99)
	if got := tr.Children(w); len(got) != 1 || got[0] != 4 {
		t.Fatalf("Children(%d) = %v after an append to Children(%d), want [4]", w, got, u)
	}
	if got := tr.Children(0); len(got) != 2 || got[0] != u || got[1] != w {
		t.Fatalf("Children(0) = %v, want [%d %d]", got, u, w)
	}
}

func TestTotalWireCap(t *testing.T) {
	tr := buildY(t)
	if got := tr.TotalWireCap(); got != 60 {
		t.Fatalf("TotalWireCap = %g, want 60", got)
	}
}

func TestSinksAndPositions(t *testing.T) {
	tr := buildY(t)
	if s := tr.Sinks(); len(s) != 2 || s[0] != 2 || s[1] != 3 {
		t.Fatalf("Sinks = %v", s)
	}
	if p := tr.BufferPositions(); len(p) != 1 || p[0] != 1 {
		t.Fatalf("BufferPositions = %v", p)
	}
}

func TestDeepChainPostOrder(t *testing.T) {
	// 100k-vertex chain: iterative traversal must not overflow.
	tr := chain(t, 100_000)
	po := tr.PostOrder()
	if len(po) != tr.Len() || po[0] != tr.Len()-1 || po[len(po)-1] != 0 {
		t.Fatal("postorder wrong on deep chain")
	}
	if tr.Depth() != 100_001 {
		t.Fatalf("Depth = %d", tr.Depth())
	}
}

// TestQuickRandomTreesValid grows random trees through the Builder and
// checks structural invariants always hold.
func TestQuickRandomTreesValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		open := []int{0} // vertices that may take children
		nv := 1
		for nv < 2+rng.Intn(40) {
			p := open[rng.Intn(len(open))]
			switch rng.Intn(3) {
			case 0:
				b.AddSink(p, rng.Float64(), rng.Float64(), rng.Float64()*10, rng.Float64()*100)
			case 1:
				open = append(open, b.AddInternal(p, rng.Float64(), rng.Float64()))
			default:
				open = append(open, b.AddBufferPos(p, rng.Float64(), rng.Float64()))
			}
			nv++
		}
		// Close every childless internal vertex with a sink.
		tr, err := b.buildClosed()
		if err != nil {
			return false
		}
		return tr.Validate() == nil && len(tr.PostOrder()) == tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// buildClosed is a test helper: adds a sink under every childless
// non-sink vertex, then builds.
func (b *Builder) buildClosed() (*Tree, error) {
	hasChild := make([]bool, len(b.verts))
	for i := 1; i < len(b.verts); i++ {
		hasChild[b.verts[i].Parent] = true
	}
	n := len(b.verts)
	for i := 0; i < n; i++ {
		if !hasChild[i] && b.verts[i].Kind != Sink {
			b.AddSink(i, 0.1, 0.1, 1, 100)
		}
	}
	return b.Build()
}

func TestKindAndPolarityStrings(t *testing.T) {
	if Source.String() != "source" || Sink.String() != "sink" || Internal.String() != "internal" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown Kind string wrong")
	}
	if Positive.String() != "+" || Negative.String() != "-" {
		t.Fatal("Polarity strings wrong")
	}
}
