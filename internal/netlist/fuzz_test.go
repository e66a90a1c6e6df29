package netlist

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bufferkit/internal/tree"
)

// FuzzNetRoundTrip asserts WriteNet is a canonicalizing inverse of
// ParseNet: anything ParseNet accepts must serialize, re-parse, and
// re-serialize to the identical bytes (write∘parse is a fixed point), with
// the tree structure preserved. Seeded with the repository's testdata
// nets.
func FuzzNetRoundTrip(f *testing.F) {
	for _, name := range []string{"line.net", "random12.net"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add("net tiny\ndriver res 0.2 k 15\nnode n1 parent src res 0.4 cap 12 buffer\nsink s1 parent n1 res 0.2 cap 8 load 14 rat 950\n")

	f.Fuzz(func(t *testing.T, in string) {
		net, err := ParseNet(bytes.NewReader([]byte(in)))
		if err != nil {
			t.Skip() // invalid inputs are ParseNet's to reject, not ours
		}
		var first bytes.Buffer
		if err := WriteNet(&first, net); err != nil {
			t.Fatalf("WriteNet rejected a parsed net: %v", err)
		}
		net2, err := ParseNet(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ParseNet rejected WriteNet output: %v\n%s", err, first.String())
		}
		if net2.Name != net.Name || net2.Driver != net.Driver {
			t.Fatalf("round trip changed name/driver: %+v vs %+v", net2, net)
		}
		if got, want := net2.Tree.Len(), net.Tree.Len(); got != want {
			t.Fatalf("round trip changed vertex count: %d != %d", got, want)
		}
		for i := range net.Tree.Verts {
			a, b := &net.Tree.Verts[i], &net2.Tree.Verts[i]
			if a.Parent != b.Parent || a.Kind != b.Kind || a.Pol != b.Pol ||
				a.BufferOK != b.BufferOK || !slices.Equal(a.Allowed, b.Allowed) ||
				a.EdgeR != b.EdgeR || a.EdgeC != b.EdgeC ||
				a.Cap != b.Cap || a.RAT != b.RAT {
				t.Fatalf("round trip changed vertex %d: %+v vs %+v", i, a, b)
			}
		}
		var second bytes.Buffer
		if err := WriteNet(&second, net2); err != nil {
			t.Fatalf("second WriteNet failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteNet is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s",
				first.String(), second.String())
		}
	})
}

// FuzzParseLibrary asserts ParseLibrary never panics, that every library
// it accepts passes Validate, and that WriteLibrary→ParseLibrary
// reproduces an accepted library field for field. Seeded with the
// repository's testdata library plus the committed corpus under
// testdata/fuzz/FuzzParseLibrary.
func FuzzParseLibrary(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "lib8.buf"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(data))

	f.Fuzz(func(t *testing.T, in string) {
		lib, err := ParseLibrary(strings.NewReader(in))
		if err != nil {
			t.Skip() // invalid inputs are ParseLibrary's to reject, not ours
		}
		if err := lib.Validate(); err != nil {
			t.Fatalf("ParseLibrary accepted a library Validate rejects: %v", err)
		}
		var out bytes.Buffer
		if err := WriteLibrary(&out, lib); err != nil {
			t.Fatalf("WriteLibrary rejected a parsed library: %v", err)
		}
		lib2, err := ParseLibrary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("ParseLibrary rejected WriteLibrary output: %v\n%s", err, out.String())
		}
		if !slices.Equal(lib, lib2) {
			t.Fatalf("round trip changed the library:\n got %+v\nwant %+v\n%s", lib2, lib, out.String())
		}
	})
}

// FuzzParseNetMatchesReference holds the in-place tokenizer to the
// reference parser (reference_test.go): for every input either both fail
// with the same message, or they return identical nets — every Vertex
// field, names included, the children order and the post order — that
// WriteNet serializes to the same bytes. The seeds cover what a byte-level
// tokenizer can get wrong next to strings.Fields: CR-LF line ends, tabs,
// \v and \f, the non-ASCII white space U+0085, U+00A0 and U+2028, invalid
// UTF-8, '#' inside a token, a missing final newline and NUL bytes.
func FuzzParseNetMatchesReference(f *testing.F) {
	for _, name := range []string{"line.net", "random12.net"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	for _, s := range []string{
		sampleNet,
		"net a\r\ndriver res 1 k 2\r\nnode n1 parent src res 1 cap 1 buffer\r\nsink s1 parent n1 res 1 cap 1 load 1 rat 1\r\n",
		"node\tn1\vparent\fsrc res 1 cap 1 buffer allowed 3,1\nsink s1 parent n1 load 1 rat 1",
		"node n1\u0085parent src\u00a0res 1 cap 1 buffer\nsink s1\u2028parent n1 load 1 rat 1\n",
		"node n\xc2 parent src res 1 cap 1\nsink s\xe2\x80 parent n\xc2 load 1 rat 1\n",
		"node n#1 parent src res 1 cap 1\nsink s1 parent n load 1 rat 1 # trailing\n",
		"net x\x00y\nnode n\x001 parent src res 1 cap 1\nsink s\x00 parent n\x001 load 1 rat 1",
		"net a\nnet b\nsink s parent src load 1 rat 1\n",
		"driver res 1\ndriver k 2\nsink s parent src load 1 rat 1\n",
		"node a parent src rse 0.4 cap 1\nsink s parent a load 1 rat 1\n",
		"sink s parent src load 1 rat 1 allowed 1,,2\n",
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, in string) {
		got, gerr := ParseNet(strings.NewReader(in))
		want, werr := referenceParseNet(strings.NewReader(in))
		if gerr != nil || werr != nil {
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("errors differ:\n got %v\nwant %v", gerr, werr)
			}
			return
		}
		if got.Name != want.Name || got.Driver != want.Driver {
			t.Fatalf("name/driver: got %q %+v, want %q %+v", got.Name, got.Driver, want.Name, want.Driver)
		}
		g, w := got.Tree, want.Tree
		if g.Len() != w.Len() {
			t.Fatalf("got %d vertices, want %d", g.Len(), w.Len())
		}
		for v := range w.Verts {
			if !reflect.DeepEqual(g.Verts[v], w.Verts[v]) {
				t.Fatalf("vertex %d: got %+v, want %+v", v, g.Verts[v], w.Verts[v])
			}
			if !slices.Equal(g.Children(v), w.Children(v)) {
				t.Fatalf("children of %d: got %v, want %v", v, g.Children(v), w.Children(v))
			}
		}
		if !slices.Equal(g.PostOrder(), w.PostOrder()) {
			t.Fatal("post order differs")
		}
		var gw, ww bytes.Buffer
		if err := WriteNet(&gw, got); err != nil {
			t.Fatal(err)
		}
		if err := WriteNet(&ww, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gw.Bytes(), ww.Bytes()) {
			t.Fatalf("WriteNet differs:\n--- got ---\n%s\n--- want ---\n%s", gw.String(), ww.String())
		}
	})
}

// FuzzWriteNetMatchesReference holds the line renderer to the reference
// writer (reference_test.go) byte for byte on every net ParseNet accepts:
// WriteNet, a fresh Lines, and a Lines whose changed vertices were
// re-rendered must all write what referenceWriteNet writes. The bits of
// mask pick vertices to strip of their names (bit v%64), so the "v<i>"
// fallback and its "x" prefix on a clash are exercised, and vertices to
// change after the Lines is made (bit (v+32)%64): new wire and sink values,
// a flipped buffer flag and a reversed allowed list.
func FuzzWriteNetMatchesReference(f *testing.F) {
	for _, name := range []string{"line.net", "random12.net"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data), uint64(0))
		f.Add(string(data), uint64(0x5a5a5a5a5a5a5a5a))
	}
	f.Add(sampleNet, uint64(0))
	f.Add(sampleNet, ^uint64(0))
	clash := "net clash\n" +
		"node v2 parent src res 0.4 cap 12 buffer allowed 3,1,2,1\n" +
		"node n2 parent v2 res 0.1 cap 3 buffer allowed 7,0\n" +
		"node v1 parent n2 res 0 cap 0\n" +
		"sink xv2 parent v1 res 0.2 cap 8 load 14 rat -950.125 neg\n" +
		"sink s2 parent v2 res 0.3 cap 9 load 21 rat 1e21\n"
	f.Add(clash, uint64(0))
	f.Add(clash, uint64(1<<2|1<<3|1<<4))
	f.Add(clash, uint64(1<<33|1<<34|1<<36))

	f.Fuzz(func(t *testing.T, in string, mask uint64) {
		net, err := ParseNet(strings.NewReader(in))
		if err != nil {
			t.Skip() // invalid inputs are ParseNet's to reject
		}
		tr := net.Tree
		for v := 1; v < tr.Len(); v++ {
			if mask>>(v%64)&1 != 0 {
				tr.Verts[v].Name = ""
			}
		}
		check := func(what string, write func(*bytes.Buffer)) {
			t.Helper()
			var got, want bytes.Buffer
			write(&got)
			if err := referenceWriteNet(&want, net); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s differs from the reference:\n--- got ---\n%s\n--- want ---\n%s", what, got.String(), want.String())
			}
		}
		check("WriteNet", func(b *bytes.Buffer) {
			if err := WriteNet(b, net); err != nil {
				t.Fatal(err)
			}
		})
		lines := NewLines(net)
		check("NewLines", func(b *bytes.Buffer) { lines.WriteTo(b) })

		for v := 1; v < tr.Len(); v++ {
			if mask>>((v+32)%64)&1 == 0 {
				continue
			}
			vert := &tr.Verts[v]
			vert.EdgeR, vert.EdgeC = vert.EdgeR*0.7+1e-9, vert.EdgeC+1.0/3
			if vert.Kind == tree.Sink {
				vert.RAT, vert.Cap = -1.5*vert.RAT+0.1, vert.Cap/3
			} else {
				vert.BufferOK = !vert.BufferOK
				vert.Allowed = slices.Clone(vert.Allowed)
				slices.Reverse(vert.Allowed)
			}
			lines.Render(v)
		}
		check("re-rendered Lines", func(b *bytes.Buffer) { lines.WriteTo(b) })
	})
}
