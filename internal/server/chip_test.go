package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"bufferkit"
	"bufferkit/internal/api"
	"bufferkit/internal/chaoskit"
)

// chipInstanceJSON renders a generated contended instance as the raw JSON
// payload the /v1/chip handler consumes.
func chipInstanceJSON(t testing.TB, o bufferkit.ChipGenOpts) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := bufferkit.WriteChipInstance(&buf, bufferkit.GenerateChip(o)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// libText renders a generated library as .buf payload text.
func libText(t testing.TB, lib bufferkit.Library) string {
	t.Helper()
	var buf bytes.Buffer
	if err := bufferkit.WriteLibrary(&buf, lib); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// chipLines splits a recorded NDJSON chip response into decoded lines.
func chipLines(t testing.TB, body *bytes.Buffer) []api.ChipLine {
	t.Helper()
	var lines []api.ChipLine
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line api.ChipLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestChipHappyPath: a contended instance streams one round record per
// pricing round and ends with a feasible Done summary whose per-net arrays
// match the instance, with the chip counters advancing.
func TestChipHappyPath(t *testing.T) {
	h := New(Config{}).Handler()
	const nets = 40
	req := api.ChipRequest{
		Instance: chipInstanceJSON(t, bufferkit.ChipGenOpts{
			W: 10, H: 10, Nets: nets, Capacity: 2, Contention: 0.7, Seed: 3}),
		Library: libText(t, bufferkit.GenerateLibrary(8)),
	}
	rec := post(t, h, "/v1/chip", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("chip = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := chipLines(t, rec.Body)
	if len(lines) < 2 {
		t.Fatalf("chip stream has %d lines, want rounds + summary", len(lines))
	}
	var rounds int
	for _, l := range lines[:len(lines)-1] {
		if l.Round == nil || l.Done != nil || l.Error != "" {
			t.Fatalf("non-terminal line is not a round record: %+v", l)
		}
		rounds++
		if l.Round.Round != rounds && !l.Round.Repair {
			t.Fatalf("round records out of order: got %d at position %d", l.Round.Round, rounds)
		}
	}
	done := lines[len(lines)-1].Done
	if done == nil {
		t.Fatalf("terminal line is not a summary: %+v", lines[len(lines)-1])
	}
	if !done.Feasible {
		t.Fatal("summary is not feasible")
	}
	if done.Nets != nets || len(done.Placements) != nets || len(done.Slacks) != nets {
		t.Fatalf("summary sized %d/%d/%d, want %d nets",
			done.Nets, len(done.Placements), len(done.Slacks), nets)
	}
	if done.Rounds != rounds {
		t.Fatalf("summary reports %d rounds, stream delivered %d", done.Rounds, rounds)
	}
	if done.Buffers == 0 {
		t.Fatal("feasible contended allocation placed no buffers")
	}
	if got := metric(t, h, "chip_requests"); got != 1 {
		t.Fatalf("chip_requests = %d, want 1", got)
	}
	if got := metric(t, h, "chip_nets"); got != nets {
		t.Fatalf("chip_nets = %d, want %d", got, nets)
	}
	if got := metric(t, h, "chip_rounds"); got != int64(rounds) {
		t.Fatalf("chip_rounds = %d, want %d", got, rounds)
	}
}

// TestChipValidation: malformed payloads and bad knobs map to 400s before
// any engine work, naming the offending field.
func TestChipValidation(t *testing.T) {
	lib := libText(t, bufferkit.GenerateLibrary(4))
	inst := chipInstanceJSON(t, bufferkit.ChipGenOpts{
		W: 4, H: 4, Nets: 3, Capacity: 2, Seed: 1})
	cases := []struct {
		name  string
		cfg   Config
		req   api.ChipRequest
		field string
	}{
		{"no instance", Config{}, api.ChipRequest{Library: lib}, "instance"},
		// An instance that parses but fails validation surfaces the
		// instance's own ValidationError field.
		{"bad instance", Config{}, api.ChipRequest{Instance: json.RawMessage(`{"grid":{}}`), Library: lib}, "grid"},
		// W*H overflows int; no site is used, so only the grid bound stops
		// it from sizing the per-site vectors.
		{"overflowing grid", Config{}, api.ChipRequest{Library: lib, Instance: json.RawMessage(
			`{"grid":{"w":3037000500,"h":3037000500,"capacity":1},"nets":[{"net":` +
				`"node n1 parent src res 0.1 cap 5 buffer\nsink s1 parent n1 res 0.1 cap 5 load 10 rat 1000\n",` +
				`"sites":[-1,-1,-1]}]}`)}, "grid"},
		{"bad library", Config{}, api.ChipRequest{Instance: inst, Library: "not a library"}, "library"},
		{"too many nets", Config{MaxChipNets: 2}, api.ChipRequest{Instance: inst, Library: lib}, "instance"},
		{"negative rounds", Config{}, api.ChipRequest{Instance: inst, Library: lib, Rounds: -1}, "rounds"},
		{"bad decay", Config{}, api.ChipRequest{Instance: inst, Library: lib, StepDecay: 1.5}, "step_decay"},
		{"wrong algorithm", Config{}, api.ChipRequest{Instance: inst, Library: lib,
			SolveOptions: api.SolveOptions{Algorithm: "lillis"}}, "algorithm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, New(tc.cfg).Handler(), "/v1/chip", tc.req)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("code = %d, want 400: %s", rec.Code, rec.Body.String())
			}
			var er api.ErrorBody
			decodeInto(t, rec, &er)
			if er.Field != tc.field {
				t.Fatalf("field = %q (%s), want %q", er.Field, er.Error, tc.field)
			}
		})
	}
}

// TestChipInfeasible: a net that needs a buffer whose only site has zero
// capacity fails before round 1, so the typed infeasibility still maps to a
// clean 422 instead of a mid-stream error record.
func TestChipInfeasible(t *testing.T) {
	b := bufferkit.NewTreeBuilder()
	pos := b.AddBufferPos(0, 0.3, 40)
	b.AddSinkPol(pos, 0.2, 30, 10, 500, bufferkit.Negative)
	inst := &bufferkit.ChipInstance{
		Grid: bufferkit.ChipGrid{W: 1, H: 1, Capacity: 0},
		Nets: []bufferkit.ChipNet{{
			Name: "needs_inv", Tree: b.MustBuild(),
			Site: []int{bufferkit.NoSite, 0, bufferkit.NoSite},
		}},
	}
	var buf bytes.Buffer
	if err := bufferkit.WriteChipInstance(&buf, inst); err != nil {
		t.Fatal(err)
	}
	h := New(Config{}).Handler()
	rec := post(t, h, "/v1/chip", api.ChipRequest{
		Instance: buf.Bytes(),
		Library:  libText(t, bufferkit.GenerateLibraryWithInverters(4)),
	})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible chip = %d, want 422: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "infeasible") {
		t.Fatalf("422 body does not name infeasibility: %s", rec.Body.String())
	}
}

// TestChipDeadline: a 1 ms budget fires before the first pricing round of a
// large instance completes, so the handler still owns the status line and
// answers 504 with the abort counters advanced.
func TestChipDeadline(t *testing.T) {
	h := New(Config{}).Handler()
	rec := post(t, h, "/v1/chip", api.ChipRequest{
		Instance: chipInstanceJSON(t, bufferkit.ChipGenOpts{
			W: 24, H: 24, Nets: 800, Capacity: 2, Contention: 0.8, Seed: 2}),
		Library:      libText(t, bufferkit.GenerateLibrary(8)),
		SolveOptions: api.SolveOptions{TimeoutMs: 1},
	})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline chip = %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if got := metric(t, h, "chip_deadline_aborts"); got != 1 {
		t.Fatalf("chip_deadline_aborts = %d, want 1", got)
	}
}

// TestChipOverloadSheds: a chip solve arriving at a saturated server with
// no queue is shed as a clean 429 + Retry-After before the stream starts.
func TestChipOverloadSheds(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: -1})
	h := s.Handler()
	release := chaoskit.HoldGate()
	defer release()
	blocked := gatedSolve(t, h, api.SolveRequest{
		Net: readTestdata(t, "line.net"), Library: readTestdata(t, "lib8.buf"),
		SolveOptions: api.SolveOptions{Algorithm: chaoskit.AlgoGate}})
	waitForMetric(t, h, "in_flight_runs", 1)

	rec := post(t, h, "/v1/chip", api.ChipRequest{
		Instance: chipInstanceJSON(t, bufferkit.ChipGenOpts{
			W: 4, H: 4, Nets: 3, Capacity: 2, Seed: 1}),
		Library: libText(t, bufferkit.GenerateLibrary(4)),
	})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded chip = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 chip reply is missing the Retry-After header")
	}
	release()
	if code := <-blocked; code != http.StatusOK {
		t.Fatalf("gated solve finished with %d, want 200", code)
	}
}

// TestChipSingleNetMatchesSolve: a chip instance holding one unconstrained
// net reports the same slack and buffer count as /v1/solve on the same
// payload — the pricing layer is exact when nothing contends.
func TestChipSingleNetMatchesSolve(t *testing.T) {
	h := New(Config{}).Handler()
	lib := libText(t, bufferkit.GenerateLibrary(8))
	inst := chipInstanceJSON(t, bufferkit.ChipGenOpts{
		W: 8, H: 8, Nets: 1, Capacity: 1000, Seed: 9})

	rec := post(t, h, "/v1/chip", api.ChipRequest{Instance: inst, Library: lib})
	if rec.Code != http.StatusOK {
		t.Fatalf("chip = %d: %s", rec.Code, rec.Body.String())
	}
	lines := chipLines(t, rec.Body)
	done := lines[len(lines)-1].Done
	if done == nil {
		t.Fatalf("terminal line is not a summary: %+v", lines[len(lines)-1])
	}

	// Re-solve the embedded net through /v1/solve.
	var parsed struct {
		Nets []struct {
			Net string `json:"net"`
		} `json:"nets"`
	}
	if err := json.Unmarshal(inst, &parsed); err != nil {
		t.Fatal(err)
	}
	srec := post(t, h, "/v1/solve", api.SolveRequest{Net: parsed.Nets[0].Net, Library: lib})
	if srec.Code != http.StatusOK {
		t.Fatalf("solve = %d: %s", srec.Code, srec.Body.String())
	}
	var sres api.SolveResult
	decodeInto(t, srec, &sres)
	if sres.Slack != done.Slacks[0] {
		t.Fatalf("chip slack %v != solve slack %v", done.Slacks[0], sres.Slack)
	}
	if sres.Buffers != done.Buffers {
		t.Fatalf("chip buffers %d != solve buffers %d", done.Buffers, sres.Buffers)
	}
}
