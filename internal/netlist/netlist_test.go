package netlist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"unsafe"

	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/netgen"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/tree"
)

const sampleNet = `
# a small Y net
net clk_east
driver res 0.5 k 20
node n1 parent src res 0.4 cap 12 buffer
node n2 parent n1 res 0.1 cap 3 buffer allowed 0,2
node n3 parent n1 res 0 cap 0
sink s1 parent n2 res 0.2 cap 8 load 14 rat 950
sink s2 parent n3 res 0.3 cap 9 load 21 rat 1000 neg
`

func TestParseNetSample(t *testing.T) {
	net, err := ParseNet(strings.NewReader(sampleNet))
	if err != nil {
		t.Fatal(err)
	}
	if net.Name != "clk_east" {
		t.Fatalf("Name = %q", net.Name)
	}
	if net.Driver != (delay.Driver{R: 0.5, K: 20}) {
		t.Fatalf("Driver = %+v", net.Driver)
	}
	tr := net.Tree
	if tr.Len() != 6 || tr.NumSinks() != 2 || tr.NumBufferPositions() != 2 {
		t.Fatalf("shape: len=%d sinks=%d pos=%d", tr.Len(), tr.NumSinks(), tr.NumBufferPositions())
	}
	if got := tr.Verts[2].Allowed; !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Allowed = %v", got)
	}
	s2 := tr.Sinks()[1]
	if tr.Verts[s2].Pol != tree.Negative || tr.Verts[s2].Cap != 21 || tr.Verts[s2].RAT != 1000 {
		t.Fatalf("sink s2 = %+v", tr.Verts[s2])
	}
	if tr.Verts[3].EdgeR != 0 || tr.Verts[3].EdgeC != 0 {
		t.Fatalf("zero-RC edge lost: %+v", tr.Verts[3])
	}
}

func TestNetWriteParseFixedPoint(t *testing.T) {
	net, err := ParseNet(strings.NewReader(sampleNet))
	if err != nil {
		t.Fatal(err)
	}
	var buf1 bytes.Buffer
	if err := WriteNet(&buf1, net); err != nil {
		t.Fatal(err)
	}
	net2, err := ParseNet(&buf1)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	var buf2 bytes.Buffer
	if err := WriteNet(&buf2, net2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() == "" || buf2.String() != mustWrite(t, net) {
		t.Fatalf("write∘parse not a fixed point:\n%s\nvs\n%s", mustWrite(t, net), buf2.String())
	}
	if !reflect.DeepEqual(net.Tree.Verts, net2.Tree.Verts) {
		t.Fatal("vertex data changed across round trip")
	}
}

func mustWrite(t *testing.T, net *Net) string {
	t.Helper()
	var b bytes.Buffer
	if err := WriteNet(&b, net); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestNetRoundTripRandom(t *testing.T) {
	f := func(seed int64) bool {
		tr := netgen.Random(netgen.Opts{Sinks: int(seed%17+17)%17 + 1, Seed: seed, NegativeSinkProb: 0.3})
		net := &Net{Name: "rnd", Tree: tr, Driver: delay.Driver{R: 0.25, K: 3}}
		var b bytes.Buffer
		if WriteNet(&b, net) != nil {
			return false
		}
		got, err := ParseNet(&b)
		if err != nil {
			return false
		}
		if got.Driver != net.Driver || got.Name != net.Name {
			return false
		}
		// Structure and parameters must survive exactly (names are
		// canonicalized by the writer, so compare everything else).
		a, c := tr.Verts, got.Tree.Verts
		if len(a) != len(c) {
			return false
		}
		for i := range a {
			x, y := a[i], c[i]
			x.Name, y.Name = "", ""
			if x.Allowed == nil {
				x.Allowed = []int{}
			}
			if y.Allowed == nil {
				y.Allowed = []int{}
			}
			if !reflect.DeepEqual(x, y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestParseNetErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"unknown directive", "frobnicate x\n", "unknown directive"},
		{"duplicate vertex", "node a parent src res 1 cap 1\nnode a parent src res 1 cap 1\nsink s parent a res 0 cap 0 load 1 rat 1\n", "duplicate vertex"},
		{"unknown parent", "node a parent nope res 1 cap 1\n", "unknown parent"},
		{"missing parent", "node a res 1 cap 1\n", "missing parent"},
		{"dangling token", "node a parent src res\n", "dangling token"},
		{"bad float", "node a parent src res abc cap 1\n", "bad res value"},
		{"sink missing load", "sink s parent src res 0 cap 0 rat 5\n", "missing load"},
		{"sink missing rat", "sink s parent src res 0 cap 0 load 5\n", "missing rat"},
		{"buffered sink", "sink s parent src res 0 cap 0 load 5 rat 5 buffer\n", "cannot be a buffer position"},
		{"neg on node", "node a parent src res 1 cap 1 neg\n", "neg applies to sinks"},
		{"allowed without buffer", "node a parent src res 1 cap 1 allowed 1\n", "allowed requires buffer"},
		{"bad allowed", "node a parent src res 1 cap 1 buffer allowed x\n", "bad allowed index"},
		{"allowed at end", "node a parent src res 1 cap 1 buffer allowed\n", "allowed needs"},
		{"empty tree", "# nothing\n", "source has no children"},
		{"leaf internal", "node a parent src res 1 cap 1\n", "is a leaf"},
		{"duplicate key", "node a parent src res 1 res 2 cap 1\n", "duplicate key"},
		{"misspelt node key", "node a parent src rse 0.4 cap 1\nsink s parent a load 1 rat 1\n", `line 1: unknown key "rse"`},
		{"sink key on node", "node a parent src load 1\nsink s parent a load 1 rat 1\n", `line 1: unknown key "load"`},
		{"misspelt sink key", "sink s parent src load 1 rat 1 lod 2\n", `line 1: unknown key "lod"`},
		{"misspelt driver key", "driver res 1 kk 2\nsink s parent src load 1 rat 1\n", `line 1: unknown key "kk"`},
		{"repeated driver", "driver res 1\ndriver k 2\nsink s parent src load 1 rat 1\n", "line 2: repeated driver directive"},
		{"repeated net", "net a\nsink s parent src load 1 rat 1\nnet b\n", "line 3: repeated net directive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseNet(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestParseNetRejectsNonFiniteValues: every electrical value of a net file
// — edge res and cap, sink load, RAT — that parses as NaN or ±Inf is a
// *ValidationError naming the vertex and the field, never a net that later
// solves to a misleading infeasibility.
func TestParseNetRejectsNonFiniteValues(t *testing.T) {
	fields := []struct {
		key, field string
		vertex     int // n1 is vertex 1, s1 vertex 2
	}{
		{"res", "EdgeR", 1},
		{"cap", "EdgeC", 1},
		{"load", "Cap", 2},
		{"rat", "RAT", 2},
	}
	for _, f := range fields {
		for _, bad := range []string{"NaN", "+Inf", "-Inf"} {
			t.Run(f.key+"="+bad, func(t *testing.T) {
				vals := map[string]string{"res": "0.1", "cap": "5", "load": "10", "rat": "1000"}
				vals[f.key] = bad
				node := fmt.Sprintf("node n1 parent src res %s cap %s buffer\n", vals["res"], vals["cap"])
				sink := fmt.Sprintf("sink s1 parent n1 res 0.1 cap 5 load %s rat %s\n", vals["load"], vals["rat"])
				_, err := ParseNet(strings.NewReader(node + sink))
				var verr *solvererr.ValidationError
				if !errors.As(err, &verr) {
					t.Fatalf("err = %v, want *ValidationError", err)
				}
				if verr.Field != f.field || verr.Vertex != f.vertex {
					t.Fatalf("field %q vertex %d, want %q at %d (%v)", verr.Field, verr.Vertex, f.field, f.vertex, err)
				}
			})
		}
	}
}

func TestParseNetReportsLineNumbers(t *testing.T) {
	_, err := ParseNet(strings.NewReader("net x\n\nbogus y\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want line 3", err)
	}
}

const sampleLib = `
# two types
buffer buf1 res 7 cin 0.7 delay 29 cost 1
buffer inv1 res 3.5 cin 1.5 delay 30 cost 2 inverting
`

func TestParseLibrarySample(t *testing.T) {
	lib, err := ParseLibrary(strings.NewReader(sampleLib))
	if err != nil {
		t.Fatal(err)
	}
	want := library.Library{
		{Name: "buf1", R: 7, Cin: 0.7, K: 29, Cost: 1},
		{Name: "inv1", R: 3.5, Cin: 1.5, K: 30, Cost: 2, Inverting: true},
	}
	if !reflect.DeepEqual(lib, want) {
		t.Fatalf("lib = %+v", lib)
	}
}

func TestLibraryRoundTrip(t *testing.T) {
	for _, lib := range []library.Library{
		library.Generate(8),
		library.GenerateWithInverters(16),
		{{Name: "", R: 1.25, Cin: 2.5, K: 0}},
	} {
		var b bytes.Buffer
		if err := WriteLibrary(&b, lib); err != nil {
			t.Fatal(err)
		}
		got, err := ParseLibrary(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(lib) {
			t.Fatalf("length %d vs %d", len(got), len(lib))
		}
		for i := range lib {
			w := lib[i]
			if w.Name == "" {
				w.Name = "b0"
			}
			if got[i] != w {
				t.Fatalf("type %d: %+v vs %+v", i, got[i], w)
			}
		}
	}
}

func TestParseLibraryErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"unknown directive", "net x\n", "unknown directive"},
		{"missing res", "buffer b cin 1\n", "missing res"},
		{"missing cin", "buffer b res 1\n", "missing cin"},
		{"fractional cost", "buffer b res 1 cin 1 cost 1.5\n", "nonnegative integer"},
		{"invalid electrical", "buffer b res -1 cin 1\n", "driving resistance"},
		{"empty", "\n", "empty"},
		{"no name", "buffer\n", "missing buffer name"},
		{"misspelt delay", "buffer b res 1 cin 1 dealy 30\n", `line 1: unknown key "dealy"`},
		{"duplicate key", "buffer b res 1 cin 1 res 2\n", `line 1: duplicate key "res"`},
		{"dangling token", "buffer b res 1 cin\n", `line 1: dangling token "cin"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseLibrary(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// industrialText returns the net text of a generated net the size of the
// paper's industrial case: m=337 sinks, n=5729 buffer positions.
func industrialText(t *testing.T) string {
	t.Helper()
	tr, err := netgen.Industrial(337, 5729, 1)
	if err != nil {
		t.Fatal(err)
	}
	return mustWrite(t, &Net{Name: "industrial", Tree: tr, Driver: delay.Driver{R: 0.2, K: 15}})
}

// TestParseNetAllocsDoNotGrowWithSize pins the point of the in-place
// tokenizer: parsing allocates a bounded number of times whether the net
// has 20 vertices or 6,000 (the per-line Fields, map and name copies the
// reference parser makes cost it ~10 allocations per vertex).
func TestParseNetAllocsDoNotGrowWithSize(t *testing.T) {
	line, err := os.ReadFile(filepath.Join("..", "..", "testdata", "line.net"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, text string }{
		{"line.net", string(line)},
		{"industrial", industrialText(t)},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := ParseNet(strings.NewReader(tc.text)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per parse", tc.name, allocs)
		if allocs > 64 {
			t.Errorf("%s: ParseNet allocates %.0f times, want <= 64", tc.name, allocs)
		}
	}
}

// checkSlab asserts that the non-empty strings in names lie back to back
// in one backing array (the parser's name slab) and that none of them
// points into in.
func checkSlab(t *testing.T, in []byte, names []string) {
	t.Helper()
	inLo := uintptr(unsafe.Pointer(&in[0]))
	inHi := inLo + uintptr(len(in))
	var ptrs []uintptr
	size := map[uintptr]int{}
	for _, s := range names {
		if s == "" {
			continue
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		if p >= inLo && p < inHi {
			t.Fatalf("name %q aliases the input buffer", s)
		}
		ptrs = append(ptrs, p)
		size[p] = len(s)
	}
	slices.Sort(ptrs)
	for i := 1; i < len(ptrs); i++ {
		if prev := ptrs[i-1]; ptrs[i] != prev+uintptr(size[prev]) {
			t.Fatalf("names are not one slab: a name ends at %#x, the next starts at %#x", prev+uintptr(size[prev]), ptrs[i])
		}
	}
}

// TestParsedNamesShareOneSlab: the net name, every vertex name and every
// library buffer name are copies in one slab per parse, never substrings
// of the input. A cached result holding a name must not pin the whole
// request body that carried it.
func TestParsedNamesShareOneSlab(t *testing.T) {
	in := []byte(sampleNet)
	net, err := ParseNet(bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{net.Name}
	for v := 1; v < net.Tree.Len(); v++ {
		names = append(names, net.Tree.Verts[v].Name)
	}
	checkSlab(t, in, names)

	in = []byte(sampleLib)
	lib, err := ParseLibrary(bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	names = names[:0]
	for _, b := range lib {
		names = append(names, b.Name)
	}
	checkSlab(t, in, names)
}

// TestParseNetReaderWithoutLen: a reader that does not report its length,
// read one byte at a time, yields the same net as a strings.Reader.
func TestParseNetReaderWithoutLen(t *testing.T) {
	want, err := ParseNet(strings.NewReader(sampleNet))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseNet(iotest.OneByteReader(strings.NewReader(sampleNet)))
	if err != nil {
		t.Fatal(err)
	}
	if mustWrite(t, got) != mustWrite(t, want) || !reflect.DeepEqual(got.Tree.Verts, want.Tree.Verts) {
		t.Fatal("nets differ")
	}
	if _, err := ParseNet(iotest.ErrReader(errors.New("boom"))); err == nil || !strings.Contains(err.Error(), "netlist: read: boom") {
		t.Fatalf("err = %v, want the read error", err)
	}
}

// TestParseLibraryMatchesReference holds ParseLibrary to the reference
// parser on the committed library and on inputs that probe the tokenizer.
func TestParseLibraryMatchesReference(t *testing.T) {
	lib8, err := os.ReadFile(filepath.Join("..", "..", "testdata", "lib8.buf"))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{
		string(lib8),
		sampleLib,
		"buffer b\tres 1\vcin 2\fdelay 3 cost 4\r\nbuffer c res 1 cin 1 inverting",
		"buffer b\u00a0res 1 cin 1\nbuffer \xc2 res 1 cin 1\u2028cost 2\n",
		"buffer b#x res 1 cin 1\nbuffer\x00 res 1 cin 1\n",
		"buffer b res 1 inverting cin 1 inverting cost 2.5\n",
		"buffer b res 1 cin 1 cost -1\n",
		"buffer b res nan cin 1\n",
	} {
		got, gerr := ParseLibrary(strings.NewReader(in))
		want, werr := referenceParseLibrary(strings.NewReader(in))
		if gerr != nil || werr != nil {
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Errorf("%q: errors differ:\n got %v\nwant %v", in, gerr, werr)
			}
			continue
		}
		if !slices.Equal(got, want) {
			t.Errorf("%q: got %+v, want %+v", in, got, want)
		}
	}
}

// BenchmarkParseNet parses the industrial-size net with ParseNet and with
// the reference parser it replaced.
func BenchmarkParseNet(b *testing.B) {
	tr, err := netgen.Industrial(337, 5729, 1)
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := WriteNet(&text, &Net{Name: "industrial", Tree: tr}); err != nil {
		b.Fatal(err)
	}
	for _, p := range []struct {
		name  string
		parse func(io.Reader) (*Net, error)
	}{{"tokenizer", ParseNet}, {"reference", referenceParseNet}} {
		b.Run(p.name, func(b *testing.B) {
			b.SetBytes(int64(text.Len()))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := p.parse(bytes.NewReader(text.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
