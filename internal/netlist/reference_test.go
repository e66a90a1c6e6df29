package netlist

// The reference parsers: ParseNet and ParseLibrary as they stood before
// the in-place tokenizer, built on bufio.Scanner, strings.Fields and a
// per-line key/value map. They change only by the strict rules the
// tokenizer brought: a key outside the directive's key set and a repeated
// net or driver line are errors. FuzzParseNetMatchesReference holds the
// production parser to them.
//
// The reference writer: WriteNet as it stood before the line renderer,
// built on fmt.Fprintf. FuzzWriteNetMatchesReference holds WriteNet and
// Lines to it byte for byte.

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"bufferkit/internal/delay"
	"bufferkit/internal/library"
	"bufferkit/internal/tree"
)

func referenceParseNet(r io.Reader) (*Net, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	b := tree.NewBuilder()
	b.SetName(0, "src")
	ids := map[string]int{"src": 0}
	net := &Net{}
	sawNet, sawDriver := false, false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("netlist: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch f[0] {
		case "net":
			if sawNet {
				return nil, fail("repeated net directive")
			}
			sawNet = true
			if len(f) != 2 {
				return nil, fail("want: net <name>")
			}
			net.Name = f[1]
		case "driver":
			if sawDriver {
				return nil, fail("repeated driver directive")
			}
			sawDriver = true
			kv, err := keyVals(f[1:], "res", "k")
			if err != nil {
				return nil, fail("%v", err)
			}
			if net.Driver.R, err = fval(kv, "res", 0); err != nil {
				return nil, fail("%v", err)
			}
			if net.Driver.K, err = fval(kv, "k", 0); err != nil {
				return nil, fail("%v", err)
			}
		case "node", "sink":
			if len(f) < 2 {
				return nil, fail("missing vertex name")
			}
			name := f[1]
			if _, dup := ids[name]; dup {
				return nil, fail("duplicate vertex %q", name)
			}
			// Trailing bare flags ("buffer", "neg") before key/value pairs
			// are extracted first.
			rest := f[2:]
			var bufferable, neg bool
			var allowed []int
			kvFields := rest[:0:0]
			for i := 0; i < len(rest); i++ {
				switch rest[i] {
				case "buffer":
					bufferable = true
				case "neg":
					neg = true
				case "allowed":
					if i+1 >= len(rest) {
						return nil, fail("allowed needs a comma-separated index list")
					}
					i++
					for _, s := range strings.Split(rest[i], ",") {
						v, err := strconv.Atoi(s)
						if err != nil || v < 0 {
							return nil, fail("bad allowed index %q", s)
						}
						allowed = append(allowed, v)
					}
				default:
					kvFields = append(kvFields, rest[i])
				}
			}
			keys := []string{"parent", "res", "cap"}
			if f[0] == "sink" {
				keys = append(keys, "load", "rat")
			}
			kv, err := keyVals(kvFields, keys...)
			if err != nil {
				return nil, fail("%v", err)
			}
			pname, ok := kv["parent"]
			if !ok {
				return nil, fail("missing parent")
			}
			parent, ok := ids[pname]
			if !ok {
				return nil, fail("unknown parent %q (parents must be declared first)", pname)
			}
			er, err := fval(kv, "res", 0)
			if err != nil {
				return nil, fail("%v", err)
			}
			ec, err := fval(kv, "cap", 0)
			if err != nil {
				return nil, fail("%v", err)
			}
			var id int
			if f[0] == "sink" {
				load, err := fvalRequired(kv, "load")
				if err != nil {
					return nil, fail("%v", err)
				}
				rat, err := fvalRequired(kv, "rat")
				if err != nil {
					return nil, fail("%v", err)
				}
				pol := tree.Positive
				if neg {
					pol = tree.Negative
				}
				if bufferable {
					return nil, fail("a sink cannot be a buffer position")
				}
				id = b.AddSinkPol(parent, er, ec, load, rat, pol)
			} else {
				if neg {
					return nil, fail("neg applies to sinks only")
				}
				switch {
				case bufferable && len(allowed) > 0:
					id = b.AddBufferPosRestricted(parent, er, ec, allowed)
				case bufferable:
					id = b.AddBufferPos(parent, er, ec)
				case len(allowed) > 0:
					return nil, fail("allowed requires buffer")
				default:
					id = b.AddInternal(parent, er, ec)
				}
			}
			if id < 0 {
				// The builder rejected the vertex; report it on this line
				// rather than as a missing parent further down.
				return nil, fmt.Errorf("netlist: line %d: %w", lineNo, b.Err())
			}
			b.SetName(id, name)
			ids[name] = id
		default:
			return nil, fail("unknown directive %q", f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: read: %w", err)
	}
	t, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	net.Tree = t
	return net, nil
}

func referenceParseLibrary(r io.Reader) (library.Library, error) {
	sc := bufio.NewScanner(r)
	var lib library.Library
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("netlist: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		if f[0] != "buffer" {
			return nil, fail("unknown directive %q", f[0])
		}
		if len(f) < 2 {
			return nil, fail("missing buffer name")
		}
		buf := library.Buffer{Name: f[1]}
		rest := f[2:]
		kvFields := rest[:0:0]
		for _, tok := range rest {
			if tok == "inverting" {
				buf.Inverting = true
			} else {
				kvFields = append(kvFields, tok)
			}
		}
		kv, err := keyVals(kvFields, "res", "cin", "delay", "cost")
		if err != nil {
			return nil, fail("%v", err)
		}
		if buf.R, err = fvalRequired(kv, "res"); err != nil {
			return nil, fail("%v", err)
		}
		if buf.Cin, err = fvalRequired(kv, "cin"); err != nil {
			return nil, fail("%v", err)
		}
		if buf.K, err = fval(kv, "delay", 0); err != nil {
			return nil, fail("%v", err)
		}
		cost, err := fval(kv, "cost", 0)
		if err != nil {
			return nil, fail("%v", err)
		}
		if cost != float64(int(cost)) || cost < 0 {
			return nil, fail("cost must be a nonnegative integer, got %v", cost)
		}
		buf.Cost = int(cost)
		lib = append(lib, buf)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: read: %w", err)
	}
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	return lib, nil
}

// keyVals parses alternating "key value" tokens; a key outside keys is
// an error.
func keyVals(f []string, keys ...string) (map[string]string, error) {
	if len(f)%2 != 0 {
		return nil, fmt.Errorf("dangling token %q", f[len(f)-1])
	}
	kv := make(map[string]string, len(f)/2)
	for i := 0; i < len(f); i += 2 {
		if !slices.Contains(keys, f[i]) {
			return nil, fmt.Errorf("unknown key %q", f[i])
		}
		if _, dup := kv[f[i]]; dup {
			return nil, fmt.Errorf("duplicate key %q", f[i])
		}
		kv[f[i]] = f[i+1]
	}
	return kv, nil
}

func fval(kv map[string]string, key string, def float64) (float64, error) {
	s, ok := kv[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s value %q", key, s)
	}
	return v, nil
}

func fvalRequired(kv map[string]string, key string) (float64, error) {
	if _, ok := kv[key]; !ok {
		return 0, fmt.Errorf("missing %s", key)
	}
	return fval(kv, key, 0)
}

func referenceWriteNet(w io.Writer, net *Net) error {
	bw := bufio.NewWriter(w)
	if net.Name != "" {
		fmt.Fprintf(bw, "net %s\n", net.Name)
	}
	if net.Driver != (delay.Driver{}) {
		fmt.Fprintf(bw, "driver res %s k %s\n", g(net.Driver.R), g(net.Driver.K))
	}
	t := net.Tree
	names := referenceCanonicalNames(t)
	for v := 1; v < t.Len(); v++ {
		vert := &t.Verts[v]
		if vert.Kind == tree.Sink {
			fmt.Fprintf(bw, "sink %s parent %s res %s cap %s load %s rat %s",
				names[v], names[vert.Parent], g(vert.EdgeR), g(vert.EdgeC), g(vert.Cap), g(vert.RAT))
			if vert.Pol == tree.Negative {
				bw.WriteString(" neg")
			}
		} else {
			fmt.Fprintf(bw, "node %s parent %s res %s cap %s",
				names[v], names[vert.Parent], g(vert.EdgeR), g(vert.EdgeC))
			if vert.BufferOK {
				bw.WriteString(" buffer")
				if len(vert.Allowed) > 0 {
					a := append([]int(nil), vert.Allowed...)
					sort.Ints(a)
					parts := make([]string, len(a))
					for i, x := range a {
						parts[i] = strconv.Itoa(x)
					}
					fmt.Fprintf(bw, " allowed %s", strings.Join(parts, ","))
				}
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

func referenceCanonicalNames(t *tree.Tree) []string {
	names := make([]string, t.Len())
	used := map[string]bool{"src": true}
	names[0] = "src"
	for v := 1; v < t.Len(); v++ {
		n := t.Verts[v].Name
		if n == "" || used[n] {
			n = fmt.Sprintf("v%d", v)
		}
		for used[n] {
			n = "x" + n
		}
		used[n] = true
		names[v] = n
	}
	return names
}
