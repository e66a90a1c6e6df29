// Package netlist reads and writes the repository's plain-text formats for
// nets and buffer libraries, so the CLIs can work on files and users can
// bring their own designs.
//
// Net format (units: kΩ, fF, ps; '#' starts a comment; parents must be
// declared before children; the source is the implicit vertex "src"):
//
//	net clk_east                        # optional net name
//	driver res 0.5 k 20                 # optional source driver
//	node n1 parent src res 0.4 cap 12 buffer
//	node n2 parent n1 res 0.1 cap 3 buffer allowed 0,2
//	node n3 parent n1 res 0 cap 0
//	sink s1 parent n2 res 0.2 cap 8 load 14 rat 950
//	sink s2 parent n3 res 0.3 cap 9 load 21 rat 1000 neg
//
// Library format:
//
//	buffer buf1 res 7 cin 0.7 delay 29 cost 1
//	buffer inv1 res 3.5 cin 1.5 delay 30 cost 2 inverting
//
// Each directive accepts a fixed key set (driver: res k; node: parent res
// cap; sink: parent res cap load rat; buffer: res cin delay cost) plus its
// bare flags. An unknown or repeated key, and a second net or driver line,
// is an error naming the line, so a misspelt key cannot silently default.
package netlist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/tree"
)

// Net bundles everything a net file describes.
type Net struct {
	Name   string
	Tree   *tree.Tree
	Driver delay.Driver
}

// The keys each directive accepts, in the order their values are read.
// Any other key, or a key given twice, is an error.
var (
	driverKeys = []string{"res", "k"}
	nodeKeys   = []string{"parent", "res", "cap"}
	sinkKeys   = []string{"parent", "res", "cap", "load", "rat"}
	bufferKeys = []string{"res", "cin", "delay", "cost"}
)

// ParseNet reads a net file: the whole input into one buffer, then
// ParseNetText.
func ParseNet(r io.Reader) (*Net, error) {
	text, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("netlist: read: %w", err)
	}
	return ParseNetText(text)
}

// ParseNetText parses a net file held in memory. It tokenizes each line of
// text in place, so its allocations do not grow with the number of
// vertices, and it only reads text: the vertex names and the net name are
// copied into one string slab, and no returned string aliases text.
func ParseNetText(text []byte) (*Net, error) {
	var err error
	nverts, nameBytes := census(text, "node", "sink", "net")
	var names strings.Builder
	names.Grow(nameBytes)
	b := tree.NewBuilder()
	b.Grow(nverts)
	ids := make(map[string]int, nverts+1)
	ids["src"] = 0
	net := &Net{}
	var (
		sawNet, sawDriver bool
		kv                [][]byte // key/value tokens of the current line
		vals              [5][]byte
		allowed           []int
	)
	sc := scanner{rest: text}
	for sc.scan() {
		f := sc.f
		switch string(f[0]) {
		case "net":
			if sawNet {
				return nil, sc.errorf("repeated net directive")
			}
			sawNet = true
			if len(f) != 2 {
				return nil, sc.errorf("want: net <name>")
			}
			net.Name = intern(&names, f[1])
		case "driver":
			if sawDriver {
				return nil, sc.errorf("repeated driver directive")
			}
			sawDriver = true
			v := vals[:len(driverKeys)]
			if err := matchKeys(f[1:], driverKeys, v); err != nil {
				return nil, sc.errorf("%v", err)
			}
			if net.Driver.R, err = number("res", v[0], 0); err != nil {
				return nil, sc.errorf("%v", err)
			}
			if net.Driver.K, err = number("k", v[1], 0); err != nil {
				return nil, sc.errorf("%v", err)
			}
		case "node", "sink":
			if len(f) < 2 {
				return nil, sc.errorf("missing vertex name")
			}
			name := f[1]
			if _, dup := ids[string(name)]; dup {
				return nil, sc.errorf("duplicate vertex %q", name)
			}
			// The bare flags ("buffer", "neg", "allowed <list>") are
			// taken out wherever they stand; the rest are key/value pairs.
			rest := f[2:]
			var bufferable, neg bool
			allowed, kv = allowed[:0], kv[:0]
			for i := 0; i < len(rest); i++ {
				switch string(rest[i]) {
				case "buffer":
					bufferable = true
				case "neg":
					neg = true
				case "allowed":
					if i+1 >= len(rest) {
						return nil, sc.errorf("allowed needs a comma-separated index list")
					}
					i++
					if allowed, err = appendIndices(allowed, rest[i]); err != nil {
						return nil, sc.errorf("%v", err)
					}
				default:
					kv = append(kv, rest[i])
				}
			}
			sink := string(f[0]) == "sink"
			keys := nodeKeys
			if sink {
				keys = sinkKeys
			}
			v := vals[:len(keys)]
			if err := matchKeys(kv, keys, v); err != nil {
				return nil, sc.errorf("%v", err)
			}
			if v[0] == nil {
				return nil, sc.errorf("missing parent")
			}
			parent, ok := ids[string(v[0])]
			if !ok {
				return nil, sc.errorf("unknown parent %q (parents must be declared first)", v[0])
			}
			er, err := number("res", v[1], 0)
			if err != nil {
				return nil, sc.errorf("%v", err)
			}
			ec, err := number("cap", v[2], 0)
			if err != nil {
				return nil, sc.errorf("%v", err)
			}
			var id int
			if sink {
				load, err := required("load", v[3])
				if err != nil {
					return nil, sc.errorf("%v", err)
				}
				rat, err := required("rat", v[4])
				if err != nil {
					return nil, sc.errorf("%v", err)
				}
				pol := tree.Positive
				if neg {
					pol = tree.Negative
				}
				if bufferable {
					return nil, sc.errorf("a sink cannot be a buffer position")
				}
				id = b.AddSinkPol(parent, er, ec, load, rat, pol)
			} else {
				if neg {
					return nil, sc.errorf("neg applies to sinks only")
				}
				switch {
				case bufferable && len(allowed) > 0:
					id = b.AddBufferPosRestricted(parent, er, ec, allowed)
				case bufferable:
					id = b.AddBufferPos(parent, er, ec)
				case len(allowed) > 0:
					return nil, sc.errorf("allowed requires buffer")
				default:
					id = b.AddInternal(parent, er, ec)
				}
			}
			if id < 0 {
				// The builder rejected the vertex; report it on this line
				// rather than as a missing parent further down.
				return nil, fmt.Errorf("netlist: line %d: %w", sc.line, b.Err())
			}
			s := intern(&names, name)
			b.SetName(id, s)
			ids[s] = id
		default:
			return nil, sc.errorf("unknown directive %q", f[0])
		}
	}
	t, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	net.Tree = t
	return net, nil
}

// WriteNet writes a net file that ParseNet reproduces exactly: the header
// lines, then each vertex's line in index order. Lines renders with the
// same functions, so the two write the same bytes.
func WriteNet(w io.Writer, net *Net) error {
	bw := bufio.NewWriter(w)
	line := appendHeader(nil, net)
	bw.Write(line)
	names := canonicalNames(net.Tree)
	for v := 1; v < net.Tree.Len(); v++ {
		line = appendVertex(line[:0], net.Tree, v, names)
		bw.Write(line)
	}
	return bw.Flush()
}

// Lines is a net's canonical text, the bytes WriteNet writes, kept as one
// rendered line per vertex so that a change to a few vertices' values
// re-renders only their lines. The vertex names are fixed when the Lines
// is made: changes may not rename vertices or reshape the tree.
type Lines struct {
	t     *tree.Tree
	names []string
	// lines[0] holds the net and driver lines (the source has no line of
	// its own); lines[v] is vertex v's line, newline included.
	lines [][]byte
}

// NewLines renders net's canonical text. The Lines reads net.Tree on every
// Render, so it sees the values the tree holds then.
func NewLines(net *Net) *Lines {
	t := net.Tree
	l := &Lines{t: t, names: canonicalNames(t), lines: make([][]byte, t.Len())}
	ends := make([]int, t.Len())
	slab := appendHeader(nil, net)
	ends[0] = len(slab)
	for v := 1; v < t.Len(); v++ {
		slab = appendVertex(slab, t, v, l.names)
		ends[v] = len(slab)
	}
	// Each line's capacity ends where it does, so a re-rendered line that
	// grows moves out of the slab instead of running into its neighbour.
	start := 0
	for v, end := range ends {
		l.lines[v] = slab[start:end:end]
		start = end
	}
	return l
}

// Render re-renders vertex v's line from the tree's current values.
func (l *Lines) Render(v int) {
	l.lines[v] = appendVertex(l.lines[v][:0], l.t, v, l.names)
}

// WriteTo writes the text, header first, then each vertex's line.
func (l *Lines) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, line := range l.lines {
		m, err := w.Write(line)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// appendHeader appends the net's "net" and "driver" lines, each only when
// it says something.
func appendHeader(dst []byte, net *Net) []byte {
	if net.Name != "" {
		dst = append(dst, "net "...)
		dst = append(dst, net.Name...)
		dst = append(dst, '\n')
	}
	if net.Driver != (delay.Driver{}) {
		dst = appendFloat(append(dst, "driver res "...), net.Driver.R)
		dst = appendFloat(append(dst, " k "...), net.Driver.K)
		dst = append(dst, '\n')
	}
	return dst
}

// appendVertex appends the line of vertex v (v > 0), newline included;
// names are the tree's canonical names.
func appendVertex(dst []byte, t *tree.Tree, v int, names []string) []byte {
	vert := &t.Verts[v]
	if vert.Kind == tree.Sink {
		dst = append(dst, "sink "...)
	} else {
		dst = append(dst, "node "...)
	}
	dst = append(dst, names[v]...)
	dst = append(dst, " parent "...)
	dst = append(dst, names[vert.Parent]...)
	dst = appendFloat(append(dst, " res "...), vert.EdgeR)
	dst = appendFloat(append(dst, " cap "...), vert.EdgeC)
	switch {
	case vert.Kind == tree.Sink:
		dst = appendFloat(append(dst, " load "...), vert.Cap)
		dst = appendFloat(append(dst, " rat "...), vert.RAT)
		if vert.Pol == tree.Negative {
			dst = append(dst, " neg"...)
		}
	case vert.BufferOK:
		dst = append(dst, " buffer"...)
		if len(vert.Allowed) > 0 {
			dst = appendSorted(append(dst, " allowed "...), vert.Allowed)
		}
	}
	return append(dst, '\n')
}

// appendSorted appends xs in ascending order, duplicates kept, joined by
// commas, leaving xs as it is. A list of up to 16 types sorts on the stack.
func appendSorted(dst []byte, xs []int) []byte {
	sorted := append(make([]int, 0, 16), xs...)
	slices.Sort(sorted)
	for i, x := range sorted {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return dst
}

// appendFloat appends v with full round-trip precision, as g formats it.
func appendFloat(dst []byte, v float64) []byte { return strconv.AppendFloat(dst, v, 'g', -1, 64) }

// canonicalNames returns unique vertex names: the stored name when present
// and unique, otherwise "v<i>". Vertex 0 is always "src".
func canonicalNames(t *tree.Tree) []string {
	names := make([]string, t.Len())
	used := map[string]bool{"src": true}
	names[0] = "src"
	for v := 1; v < t.Len(); v++ {
		n := t.Verts[v].Name
		if n == "" || used[n] {
			n = "v" + strconv.Itoa(v)
		}
		for used[n] {
			n = "x" + n
		}
		used[n] = true
		names[v] = n
	}
	return names
}

// ParseLibrary reads a library file: the whole input into one buffer,
// then ParseLibraryText.
func ParseLibrary(r io.Reader) (library.Library, error) {
	text, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("netlist: read: %w", err)
	}
	return ParseLibraryText(text)
}

// ParseLibraryText parses a library file held in memory, on the same
// in-place tokenizer as ParseNetText: it only reads text, and the buffer
// names share one string slab.
func ParseLibraryText(text []byte) (library.Library, error) {
	var err error
	nbufs, nameBytes := census(text, "buffer")
	var names strings.Builder
	names.Grow(nameBytes)
	lib := make(library.Library, 0, nbufs)
	var (
		kv   [][]byte
		vals [4][]byte
	)
	sc := scanner{rest: text}
	for sc.scan() {
		f := sc.f
		if string(f[0]) != "buffer" {
			return nil, sc.errorf("unknown directive %q", f[0])
		}
		if len(f) < 2 {
			return nil, sc.errorf("missing buffer name")
		}
		var buf library.Buffer
		kv = kv[:0]
		for _, tok := range f[2:] {
			if string(tok) == "inverting" {
				buf.Inverting = true
			} else {
				kv = append(kv, tok)
			}
		}
		if err := matchKeys(kv, bufferKeys, vals[:]); err != nil {
			return nil, sc.errorf("%v", err)
		}
		if buf.R, err = required("res", vals[0]); err != nil {
			return nil, sc.errorf("%v", err)
		}
		if buf.Cin, err = required("cin", vals[1]); err != nil {
			return nil, sc.errorf("%v", err)
		}
		if buf.K, err = number("delay", vals[2], 0); err != nil {
			return nil, sc.errorf("%v", err)
		}
		cost, err := number("cost", vals[3], 0)
		if err != nil {
			return nil, sc.errorf("%v", err)
		}
		if cost != float64(int(cost)) || cost < 0 {
			return nil, sc.errorf("cost must be a nonnegative integer, got %v", cost)
		}
		buf.Cost = int(cost)
		buf.Name = intern(&names, f[1])
		lib = append(lib, buf)
	}
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	return lib, nil
}

// WriteLibrary writes a library file that ParseLibrary reproduces exactly.
func WriteLibrary(w io.Writer, lib library.Library) error {
	bw := bufio.NewWriter(w)
	for i, b := range lib {
		name := b.Name
		if name == "" {
			name = fmt.Sprintf("b%d", i)
		}
		fmt.Fprintf(bw, "buffer %s res %s cin %s delay %s cost %d", name, g(b.R), g(b.Cin), g(b.K), b.Cost)
		if b.Inverting {
			bw.WriteString(" inverting")
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// readAll reads r to EOF into one buffer. A reader that reports its
// remaining length (strings.Reader, bytes.Reader, bytes.Buffer) gets a
// buffer that holds it all, so reading costs one allocation.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead) // MinRead: ReadFrom's room for the EOF read
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// scanner walks a text buffer line by line and splits each line into
// whitespace-separated tokens in place: the tokens are subslices of the
// buffer, and f is reused from line to line.
type scanner struct {
	rest []byte   // text after the current line
	line int      // 1-based number of the current line
	f    [][]byte // tokens of the current line
}

// scan advances to the next line that holds a token after its comment is
// cut away, and reports whether there was one.
func (s *scanner) scan() bool {
	for len(s.rest) > 0 {
		var line []byte
		line, s.rest = nextLine(s.rest)
		s.line++
		s.f = s.f[:0]
		for tok, rest := nextField(line); len(tok) > 0; tok, rest = nextField(rest) {
			s.f = append(s.f, tok)
		}
		if len(s.f) > 0 {
			return true
		}
	}
	return false
}

// errorf formats an error for the current line.
func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("netlist: line %d: %s", s.line, fmt.Sprintf(format, args...))
}

// nextLine splits the first line off text, dropping its newline and any
// '#' comment.
func nextLine(text []byte) (line, rest []byte) {
	line = text
	if i := bytes.IndexByte(text, '\n'); i >= 0 {
		line, rest = text[:i], text[i+1:]
	}
	if i := bytes.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return line, rest
}

// byteClass sorts the bytes for nextField: a token byte, an ASCII byte
// strings.Fields treats as white space, or the first byte of a non-ASCII
// rune, which must be decoded to tell.
var byteClass = func() (c [256]uint8) {
	for b := utf8.RuneSelf; b < 256; b++ {
		c[b] = multiByte
	}
	for _, b := range "\t\n\v\f\r " {
		c[b] = asciiSpace
	}
	return c
}()

const (
	tokenByte = iota
	asciiSpace
	multiByte
)

// nextField returns the first token of s and the text after it, or an
// empty token when s holds none. Tokens split exactly where strings.Fields
// splits. ASCII bytes are classified by table; only a non-ASCII byte falls
// back on decoding its rune for unicode.IsSpace, which also counts U+0085,
// U+00A0, U+2028 and the like as separators.
func nextField(s []byte) (tok, rest []byte) {
	i := 0
skip:
	for i < len(s) {
		switch byteClass[s[i]] {
		case tokenByte:
			break skip
		case asciiSpace:
			i++
		default:
			r, n := utf8.DecodeRune(s[i:])
			if !unicode.IsSpace(r) {
				break skip
			}
			i += n
		}
	}
	j := i
	for j < len(s) {
		switch byteClass[s[j]] {
		case tokenByte:
			j++
			continue
		case multiByte:
			if r, n := utf8.DecodeRune(s[j:]); !unicode.IsSpace(r) {
				j += n
				continue
			}
		}
		break
	}
	return s[i:j], s[j:]
}

// census counts the lines that start with one of the directives dirs and
// name something, and the bytes of those names: an upper bound on the
// vertices or buffers a parse adds, and the size of its name slab.
func census(text []byte, dirs ...string) (lines, nameBytes int) {
	for len(text) > 0 {
		var line []byte
		line, text = nextLine(text)
		dir, rest := nextField(line)
		name, _ := nextField(rest)
		if len(name) == 0 {
			continue
		}
		for _, d := range dirs {
			if string(dir) == d {
				lines++
				nameBytes += len(name)
				break
			}
		}
	}
	return lines, nameBytes
}

// intern copies tok into the slab and returns the copy. The slab only
// grows, so strings handed out earlier stay valid; sized by census, it
// never reallocates and every name shares one backing array.
func intern(slab *strings.Builder, tok []byte) string {
	start := slab.Len()
	slab.Write(tok)
	return slab.String()[start:]
}

// matchKeys reads the alternating key/value tokens kv against the fixed
// key set keys: vals[i] receives the value token of keys[i], or nil when
// that key is absent. An odd token count, a key outside keys and a
// repeated key are errors, reported for the first offending token.
func matchKeys(kv [][]byte, keys []string, vals [][]byte) error {
	if len(kv)%2 != 0 {
		return fmt.Errorf("dangling token %q", kv[len(kv)-1])
	}
	clear(vals)
	for i := 0; i < len(kv); i += 2 {
		k := 0
		for k < len(keys) && keys[k] != string(kv[i]) {
			k++
		}
		if k == len(keys) {
			return fmt.Errorf("unknown key %q", kv[i])
		}
		if vals[k] != nil {
			return fmt.Errorf("duplicate key %q", kv[i])
		}
		vals[k] = kv[i+1]
	}
	return nil
}

// number parses the value token of key, or returns def when the key was
// absent (tok == nil).
func number(key string, tok []byte, def float64) (float64, error) {
	if tok == nil {
		return def, nil
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s value %q", key, tok)
	}
	return v, nil
}

// required is number for a key that must be present.
func required(key string, tok []byte) (float64, error) {
	if tok == nil {
		return 0, fmt.Errorf("missing %s", key)
	}
	return number(key, tok, 0)
}

// appendIndices appends the comma-separated library type indices of tok
// to dst.
func appendIndices(dst []int, tok []byte) ([]int, error) {
	for {
		seg := tok
		i := bytes.IndexByte(tok, ',')
		if i >= 0 {
			seg, tok = tok[:i], tok[i+1:]
		}
		v, err := strconv.Atoi(string(seg))
		if err != nil || v < 0 {
			return dst, fmt.Errorf("bad allowed index %q", seg)
		}
		dst = append(dst, v)
		if i < 0 {
			return dst, nil
		}
	}
}

// g formats a float with full round-trip precision.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
