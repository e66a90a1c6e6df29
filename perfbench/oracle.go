package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"bufferkit"
	"bufferkit/client"
)

// The correctness gate. Every answer the server returns is checked off the
// clock against two independent in-process references: the optimal slack
// of the Lillis O(b²n²) baseline on the same net, and an exact Elmore
// re-evaluation of the returned placement, which must reproduce the
// returned slack, buffer count and cost.

// slackTol is the agreement required between two slacks (ps), relative to
// the slack's magnitude: the DPs and the evaluator sum the same terms in
// different orders, nothing more.
const slackTol = 1e-6

func slackEqual(a, b float64) bool {
	return math.Abs(a-b) <= slackTol*max(1, math.Abs(b))
}

// oracle holds the library every workload solves against.
type oracle struct {
	lib     bufferkit.Library
	libText string
	types   map[string]int // buffer type name → library index
}

func newOracle(lib bufferkit.Library) (*oracle, error) {
	var sb strings.Builder
	if err := bufferkit.WriteLibrary(&sb, lib); err != nil {
		return nil, err
	}
	// Reparse so the library holds exactly the names the server sees.
	parsed, err := bufferkit.ParseLibrary(strings.NewReader(sb.String()))
	if err != nil {
		return nil, err
	}
	o := &oracle{lib: parsed, libText: sb.String(), types: map[string]int{}}
	for i, b := range parsed {
		o.types[b.Name] = i
	}
	return o, nil
}

// refNet is one net the benchmark sends, parsed back from its own text so
// vertex names match the server's.
type refNet struct {
	body  string // net text without the "net <name>" line
	net   *bufferkit.Net
	names map[string]int // vertex name → index
}

// newRefNet renders t with driver drv and parses it back.
func newRefNet(t *bufferkit.Tree, drv bufferkit.Driver) (*refNet, error) {
	var sb strings.Builder
	if err := bufferkit.WriteNet(&sb, &bufferkit.Net{Tree: t, Driver: drv}); err != nil {
		return nil, err
	}
	net, err := bufferkit.ParseNet(strings.NewReader(sb.String()))
	if err != nil {
		return nil, err
	}
	r := &refNet{body: sb.String(), net: net, names: make(map[string]int, net.Tree.Len())}
	for v := range net.Tree.Verts {
		r.names[net.Tree.Verts[v].Name] = v
	}
	return r, nil
}

// text is the full net text under a given net name.
func (r *refNet) text(name string) string { return "net " + name + "\n" + r.body }

// reference returns the Lillis baseline's optimal slack for t.
func (o *oracle) reference(t *bufferkit.Tree, drv bufferkit.Driver) (float64, error) {
	s, err := bufferkit.NewSolver(bufferkit.WithLibrary(o.lib), bufferkit.WithDriver(drv),
		bufferkit.WithAlgorithm(bufferkit.AlgoLillis))
	if err != nil {
		return 0, err
	}
	defer s.Close()
	res, err := s.Run(context.Background(), t)
	if err != nil {
		return 0, err
	}
	return res.Slack, nil
}

// reply is the part of a server answer the oracle checks. It is decoded
// from vertex and buffer-type names as soon as the answer arrives, so a
// run's thousands of retained answers stay small.
type reply struct {
	slack         float64
	buffers, cost int
	types         []int8 // library index per vertex, -1 = unbuffered
	err           error  // missing answer, or one naming unknown vertices or types
}

// decode converts an answer for a net with the given vertex names.
func (o *oracle) decode(names map[string]int, got *client.SolveResult) reply {
	if got == nil {
		return reply{err: errors.New("no result")}
	}
	r := reply{slack: got.Slack, buffers: got.Buffers, cost: got.Cost, types: make([]int8, len(names))}
	for i := range r.types {
		r.types[i] = -1
	}
	for vname, bname := range got.Placement {
		v, ok := names[vname]
		if !ok {
			r.err = fmt.Errorf("placement names unknown vertex %q", vname)
			return r
		}
		b, ok := o.types[bname]
		if !ok {
			r.err = fmt.Errorf("placement names unknown buffer type %q", bname)
			return r
		}
		r.types[v] = int8(b)
	}
	return r
}

// check verifies one decoded answer for tree t and driver drv against the
// reference slack ref.
func (o *oracle) check(t *bufferkit.Tree, drv bufferkit.Driver, ref float64, got reply) error {
	if got.err != nil {
		return got.err
	}
	if !slackEqual(got.slack, ref) {
		return fmt.Errorf("slack %.9g, reference (Lillis) %.9g", got.slack, ref)
	}
	p := bufferkit.NewPlacement(t.Len())
	for v, b := range got.types {
		if b >= 0 {
			p[v] = int(b)
		}
	}
	if n := p.Count(); n != got.buffers {
		return fmt.Errorf("placement has %d buffers, reply says %d", n, got.buffers)
	}
	if c := p.Cost(o.lib); c != got.cost {
		return fmt.Errorf("placement costs %d, reply says %d", c, got.cost)
	}
	ev, err := bufferkit.Evaluate(t, o.lib, p, drv)
	if err != nil {
		return fmt.Errorf("placement does not evaluate: %w", err)
	}
	if !slackEqual(ev.Slack, got.slack) {
		return fmt.Errorf("placement evaluates to slack %.9g (Elmore), reply says %.9g", ev.Slack, got.slack)
	}
	return nil
}
