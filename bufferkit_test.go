package bufferkit_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"bufferkit"
)

// solveWith runs one net through a fresh Solver built from opts.
func solveWith(t *testing.T, net *bufferkit.Tree, opts ...bufferkit.Option) *bufferkit.NetResult {
	t.Helper()
	s, err := bufferkit.NewSolver(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background(), net)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFacadeQuickstart exercises the documented public workflow end to end.
func TestFacadeQuickstart(t *testing.T) {
	w := bufferkit.PaperWire()
	b := bufferkit.NewTreeBuilder()
	v := b.AddBufferPos(0, w.R*4000, w.C*4000)
	b.AddSink(v, w.R*2500, w.C*2500, 12, 1000)
	b.AddSink(v, w.R*1200, w.C*1200, 30, 900)
	net := b.MustBuild()

	lib := bufferkit.GenerateLibrary(16)
	d := bufferkit.Driver{R: 0.2, K: 15}
	res := solveWith(t, net, bufferkit.WithLibrary(lib), bufferkit.WithDriver(d))
	unbuf, err := bufferkit.Evaluate(net, lib, bufferkit.NewPlacement(net.Len()), d)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Slack > unbuf.Slack) {
		t.Fatalf("insertion did not improve slack: %g vs %g", res.Slack, unbuf.Slack)
	}
	chk, err := bufferkit.Evaluate(net, lib, res.Placement, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(chk.Slack-res.Slack) > 1e-6 {
		t.Fatalf("oracle %g != reported %g", chk.Slack, res.Slack)
	}
}

// TestFacadeAlgorithmsAgree checks the three slack-optimal algorithms
// against each other through the public API only.
func TestFacadeAlgorithmsAgree(t *testing.T) {
	net := bufferkit.TwoPinNet(9000, 18, 12, 800, bufferkit.PaperWire())
	d := bufferkit.Driver{R: 0.25, K: 10}
	lib := bufferkit.GenerateLibrary(1)

	vg := solveWith(t, net, bufferkit.WithLibrary(lib), bufferkit.WithDriver(d),
		bufferkit.WithAlgorithm(bufferkit.AlgoVanGinneken))
	ll := solveWith(t, net, bufferkit.WithLibrary(lib), bufferkit.WithDriver(d),
		bufferkit.WithAlgorithm(bufferkit.AlgoLillis))
	co := solveWith(t, net, bufferkit.WithLibrary(lib), bufferkit.WithDriver(d))
	if math.Abs(vg.Slack-ll.Slack) > 1e-6 || math.Abs(ll.Slack-co.Slack) > 1e-6 {
		t.Fatalf("algorithms disagree: vg %g, lillis %g, new %g", vg.Slack, ll.Slack, co.Slack)
	}
}

func TestFacadeNetlistRoundTrip(t *testing.T) {
	tr, err := bufferkit.IndustrialNet(15, 80, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := &bufferkit.Net{Name: "rt", Tree: tr, Driver: bufferkit.Driver{R: 0.3}}
	var buf bytes.Buffer
	if err := bufferkit.WriteNet(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := bufferkit.ParseNet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "rt" || out.Tree.Len() != tr.Len() || out.Driver != in.Driver {
		t.Fatalf("round trip lost data: %+v", out)
	}

	var lb bytes.Buffer
	if err := bufferkit.WriteLibrary(&lb, bufferkit.GenerateLibraryWithInverters(6)); err != nil {
		t.Fatal(err)
	}
	lib2, err := bufferkit.ParseLibrary(strings.NewReader(lb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(lib2) != 6 || !lib2.HasInverters() {
		t.Fatalf("library round trip lost data: %+v", lib2)
	}
}

func TestFacadeCostPareto(t *testing.T) {
	net := bufferkit.TwoPinNet(8000, 10, 15, 900, bufferkit.PaperWire())
	lib := bufferkit.GenerateLibrary(4)
	d := bufferkit.Driver{R: 0.4}
	pts := solveWith(t, net, bufferkit.WithLibrary(lib), bufferkit.WithDriver(d),
		bufferkit.WithAlgorithm(bufferkit.AlgoCostSlack)).Frontier
	if len(pts) < 2 {
		t.Fatalf("degenerate frontier: %+v", pts)
	}
	opt := solveWith(t, net, bufferkit.WithLibrary(lib), bufferkit.WithDriver(d))
	if math.Abs(pts[len(pts)-1].Slack-opt.Slack) > 1e-6 {
		t.Fatalf("frontier max %g != optimum %g", pts[len(pts)-1].Slack, opt.Slack)
	}
}

func TestFacadeSegmentAndReduce(t *testing.T) {
	base := bufferkit.RandomNet(bufferkit.NetOpts{Sinks: 10, Seed: 4})
	seg, err := bufferkit.SegmentUniform(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Len() <= base.Len() {
		t.Fatal("segmenting did not add vertices")
	}
	seg2, err := bufferkit.SegmentToPositions(base, 200)
	if err != nil {
		t.Fatal(err)
	}
	if seg2.NumBufferPositions() != 200 {
		t.Fatalf("positions = %d", seg2.NumBufferPositions())
	}
	red, idx, err := bufferkit.ReduceLibrary(bufferkit.GenerateLibrary(32), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(red) != 8 || len(idx) != 8 {
		t.Fatalf("reduce returned %d types", len(red))
	}
}

func TestFacadeDestructiveMode(t *testing.T) {
	net := bufferkit.TwoPinNet(9000, 20, 12, 800, bufferkit.PaperWire())
	d := bufferkit.Driver{R: 0.3}
	lib := bufferkit.GenerateLibrary(8)
	a := solveWith(t, net, bufferkit.WithLibrary(lib), bufferkit.WithDriver(d),
		bufferkit.WithPruneMode(bufferkit.PruneTransient))
	b := solveWith(t, net, bufferkit.WithLibrary(lib), bufferkit.WithDriver(d),
		bufferkit.WithPruneMode(bufferkit.PruneDestructive))
	if math.Abs(a.Slack-b.Slack) > 1e-6 {
		t.Fatalf("modes disagree on a 2-pin net: %g vs %g", a.Slack, b.Slack)
	}
}
