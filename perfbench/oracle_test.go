package main

import (
	"context"
	"testing"

	"bufferkit"
	"bufferkit/client"
)

// answer solves r with the paper's algorithm and renders the reply the
// way bufferkitd does: placement by vertex and buffer type name.
func answer(t *testing.T, o *oracle, r *refNet) *client.SolveResult {
	t.Helper()
	s, err := bufferkit.NewSolver(bufferkit.WithLibrary(o.lib), bufferkit.WithDriver(r.net.Driver))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background(), r.net.Tree)
	if err != nil {
		t.Fatal(err)
	}
	out := &client.SolveResult{Slack: res.Slack, Buffers: res.Placement.Count(),
		Cost: res.Placement.Cost(o.lib), Placement: map[string]string{}}
	for v, b := range res.Placement {
		if b != bufferkit.NoBuffer {
			out.Placement[r.net.Tree.Verts[v].Name] = o.lib[b].Name
		}
	}
	if out.Buffers == 0 {
		t.Fatal("test net needs at least one buffer")
	}
	return out
}

func testNet(t *testing.T) (*oracle, *refNet, float64) {
	t.Helper()
	o, err := newOracle(bufferkit.GenerateLibrary(8))
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRefNet(bufferkit.RandomNet(bufferkit.NetOpts{Sinks: 12, Seed: 7}), driver)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := o.reference(r.net.Tree, driver)
	if err != nil {
		t.Fatal(err)
	}
	return o, r, ref
}

func TestOracleAcceptsTheServerAnswer(t *testing.T) {
	o, r, ref := testNet(t)
	if err := o.check(r.net.Tree, driver, ref, o.decode(r.names, answer(t, o, r))); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
}

func TestOracleRejectsTamperedAnswers(t *testing.T) {
	o, r, ref := testNet(t)
	for name, tamper := range map[string]func(*client.SolveResult){
		"slack nudged": func(a *client.SolveResult) { a.Slack += 0.01 },
		"placement entry flipped to another type": func(a *client.SolveResult) {
			for v, b := range a.Placement {
				for _, other := range o.lib {
					if other.Name != b {
						a.Placement[v] = other.Name
						return
					}
				}
			}
		},
		"placement entry dropped": func(a *client.SolveResult) {
			for v := range a.Placement {
				delete(a.Placement, v)
				return
			}
		},
		"unknown vertex": func(a *client.SolveResult) { a.Placement["nosuchvertex"] = o.lib[0].Name },
		"unknown type":   func(a *client.SolveResult) { a.Placement["src"] = "nosuchbuffer" },
		"missing reply":  nil,
	} {
		a := answer(t, o, r)
		if tamper == nil {
			a = nil
		} else {
			tamper(a)
		}
		if err := o.check(r.net.Tree, driver, ref, o.decode(r.names, a)); err == nil {
			t.Errorf("%s: tampered answer accepted", name)
		}
	}
}

// A placement whose own Elmore slack disagrees with the reply is rejected
// even when the reply's slack, buffer count and cost all match: one buffer
// moves to another legal position, keeping its type.
func TestOracleReevaluatesThePlacement(t *testing.T) {
	o, r, ref := testNet(t)
	a := answer(t, o, r)
	var from, typ string
	for v, b := range a.Placement {
		from, typ = v, b
		break
	}
	for to, idx := range r.names {
		if _, taken := a.Placement[to]; taken || !r.net.Tree.Verts[idx].BufferOK {
			continue
		}
		moved := answer(t, o, r)
		delete(moved.Placement, from)
		moved.Placement[to] = typ
		p := bufferkit.NewPlacement(r.net.Tree.Len())
		for v, b := range moved.Placement {
			p[r.names[v]] = o.types[b]
		}
		ev, err := bufferkit.Evaluate(r.net.Tree, o.lib, p, driver)
		if err != nil || slackEqual(ev.Slack, a.Slack) {
			continue // this move happens to keep the slack; try another
		}
		if err := o.check(r.net.Tree, driver, ref, o.decode(r.names, moved)); err == nil {
			t.Fatalf("buffer moved from %s to %s accepted", from, to)
		}
		return
	}
	t.Skip("no slack-changing move on the test net")
}
