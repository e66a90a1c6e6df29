package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"bufferkit"
	"bufferkit/internal/api"
	"bufferkit/internal/fleet"
)

// volatileWire matches the reply values that vary between runs of the
// same input: engine wall times, the warm arena's retained slab size (it
// depends on which pooled engine served the run) and a fleet peer's
// suspicion level (it grows with the time since the peer was last heard).
// wireBytes zeroes them so the rest of each body compares byte for byte.
var volatileWire = regexp.MustCompile(`"(elapsed_ms|ArenaBytes|phi)":[^,}]+`)

// wireBytes compacts one JSON body and zeroes its volatile values.
func wireBytes(t *testing.T, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, body); err != nil {
		t.Fatalf("body is not JSON: %v\n%s", err, body)
	}
	return volatileWire.ReplaceAll(buf.Bytes(), []byte(`"$1":0`))
}

// ndjsonLines splits an NDJSON body into its non-empty lines.
func ndjsonLines(body []byte) [][]byte {
	var out [][]byte
	for _, l := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(l)) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// TestWireGolden pins the bytes of every JSON body bufferkitd writes for
// fixed inputs — solve (with stats, and costslack with a frontier), batch
// lines and the truncation record, yield, chip round and done lines, the
// session PUT reply (created and cached) and a 400 error body — against
// testdata/wire. Clients in any language code against these bytes, so a
// change to a body's field names, tags or order fails here.
func TestWireGolden(t *testing.T) {
	lib8 := readTestdata(t, "lib8.buf")
	line := readTestdata(t, "line.net")
	random12 := readTestdata(t, "random12.net")
	golden := map[string][]byte{}
	record := func(name string, body []byte) { golden[name] = wireBytes(t, body) }
	encode := func(v any) []byte {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		return rec.Body.Bytes()
	}
	solve := func(netText string, algo string) (*bufferkit.Net, bufferkit.Library, *bufferkit.Solver, *bufferkit.NetResult) {
		net, lib, err := parsePayload(netText, lib8)
		if err != nil {
			t.Fatal(err)
		}
		solver, err := bufferkit.NewSolver(bufferkit.WithLibrary(lib), bufferkit.WithAlgorithm(algo),
			bufferkit.WithDriver(net.Driver), bufferkit.WithStats(true))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(solver.Close)
		res, err := solver.Run(context.Background(), net.Tree)
		if err != nil {
			t.Fatal(err)
		}
		return net, lib, solver, res
	}

	net, lib, solver, res := solve(random12, bufferkit.AlgoNew)
	solved := buildResponse(net, lib, solver.Algorithm(), res, 3*time.Millisecond)
	if solved.Stats == nil {
		t.Fatal("solve reply has no stats")
	}
	record("solve", encode(solved))

	net, lib, solver, res = solve(random12, bufferkit.AlgoCostSlack)
	frontier := buildResponse(net, lib, solver.Algorithm(), res, 0)
	if len(frontier.Frontier) < 2 {
		t.Fatalf("costslack reply has %d frontier points, want ≥2", len(frontier.Frontier))
	}
	record("solve_costslack", encode(frontier))

	// Batch: the handler's ordered result lines, then the terminal record a
	// deadline abort writes.
	h := New(Config{TraceRing: -1}).Handler()
	rec := post(t, h, "/v1/batch", map[string]any{"library": lib8, "nets": []string{line, random12}, "ordered": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", rec.Code, rec.Body)
	}
	for i, l := range ndjsonLines(rec.Body.Bytes()) {
		record("batch_line_"+string(rune('0'+i)), l)
	}
	trunc := httptest.NewRecorder()
	(&ndjsonWriter[*api.BatchLine]{w: trunc, cancel: func() {}}).write(
		&api.BatchLine{Index: -1, Error: errorMessage(New(Config{}).asCanceled(context.DeadlineExceeded))})
	record("batch_truncated", trunc.Body.Bytes())

	// Yield: enough corners at a wide sigma that several optima appear.
	ynet, ylib, err := parsePayload(random12, lib8)
	if err != nil {
		t.Fatal(err)
	}
	ysolver, err := bufferkit.NewSolver(bufferkit.WithLibrary(ylib), bufferkit.WithDriver(ynet.Driver),
		bufferkit.WithSamples(16), bufferkit.WithSigma(0.15), bufferkit.WithVariationSeed(7),
		bufferkit.WithYieldTarget(0), bufferkit.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ysolver.Close()
	yres, err := ysolver.SolveYield(context.Background(), ynet.Tree)
	if err != nil {
		t.Fatal(err)
	}
	yresp := buildYieldResponse(ynet, ylib, ysolver.Algorithm(), yres, 5*time.Millisecond)
	if len(yresp.Placements) < 2 {
		t.Fatalf("yield reply has %d placements, want ≥2", len(yresp.Placements))
	}
	record("yield", encode(yresp))

	// Chip: the first round record and the done summary.
	rec = post(t, h, "/v1/chip", map[string]any{
		"instance": chipInstanceJSON(t, bufferkit.ChipGenOpts{W: 6, H: 6, Nets: 8, Capacity: 1, Contention: 0.7, Seed: 3}),
		"library":  libText(t, bufferkit.GenerateLibrary(4)),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("chip = %d: %s", rec.Code, rec.Body)
	}
	chip := ndjsonLines(rec.Body.Bytes())
	if len(chip) < 2 {
		t.Fatalf("chip stream has %d lines, want a round and a summary", len(chip))
	}
	record("chip_round", chip[0])
	record("chip_done", chip[len(chip)-1])

	// Session: a PUT that creates and resolves, then a second session on
	// the same net answered from the cache. A fresh server, so the batch's
	// results are not in its cache.
	h = New(Config{TraceRing: -1}).Handler()
	for _, c := range []struct{ id, name string }{{"golden-a", "session_created"}, {"golden-b", "session_cached"}} {
		rec = request(t, h, "PUT", "/v1/sessions/"+c.id, map[string]any{"net": random12, "library": lib8})
		if rec.Code != http.StatusOK {
			t.Fatalf("session PUT %s = %d: %s", c.id, rec.Code, rec.Body)
		}
		record(c.name, rec.Body.Bytes())
	}

	// A 400 whose body names the field and the vertex.
	rec = post(t, h, "/v1/solve", map[string]any{"library": lib8,
		"net": "node n1 parent src res 0.1 cap 5 buffer\nsink s1 parent n1 res 0.1 cap 5 load 10 rat NaN\n"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad solve = %d: %s", rec.Code, rec.Body)
	}
	var er api.ErrorBody
	decodeInto(t, rec, &er)
	if er.Field == "" || er.Vertex == nil {
		t.Fatalf("error body lacks field or vertex: %s", rec.Body)
	}
	record("error_400", rec.Body.Bytes())

	for name, got := range golden {
		want, err := os.ReadFile(filepath.Join("testdata", "wire", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.TrimSpace(want)) {
			t.Errorf("%s body changed:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestWireGoldenFleet pins the GET /v1/fleet reply as decoded values: a
// single node's, and a fleet member's before any probe has run.
func TestWireGoldenFleet(t *testing.T) {
	single := get(t, New(Config{TraceRing: -1}).Handler(), "/v1/fleet")
	s := New(Config{TraceRing: -1, Fleet: fleet.Config{
		Self:          "http://127.0.0.1:1",
		Peers:         []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"},
		ProbeInterval: time.Hour,
	}})
	defer s.Close()
	member := get(t, s.Handler(), "/v1/fleet")
	for name, rec := range map[string]*httptest.ResponseRecorder{"fleet_single": single, "fleet_member": member} {
		want, err := os.ReadFile(filepath.Join("testdata", "wire", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var got, exp any
		if err := json.Unmarshal(wireBytes(t, rec.Body.Bytes()), &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &exp); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("%s reply changed:\n got %s\nwant %s", name, strings.TrimSpace(rec.Body.String()), want)
		}
	}
}
