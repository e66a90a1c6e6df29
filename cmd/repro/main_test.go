package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"bufferkit/internal/experiments"
)

// quickBench caps testing.Benchmark at one iteration per measurement so the
// smoke tests below finish in seconds; the JSON shape and series keys are
// what is under test, not the timings.
func quickBench(t *testing.T) {
	t.Helper()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
}

// TestBenchJSONOutput: `repro -bench-json -` must emit a parseable report
// carrying every expected benchmark series — the engine reuse pair, the
// list-vs-SoA regime matrix, the yield-sweep series, and the batch
// throughput ladder.
func TestBenchJSONOutput(t *testing.T) {
	quickBench(t)
	var out bytes.Buffer
	if err := run([]string{"-bench-json", "-", "-scale", "256"}, &out); err != nil {
		t.Fatal(err)
	}
	var report experiments.BenchReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("bench JSON does not parse: %v\n%s", err, out.String())
	}
	if report.GoVersion == "" || report.GOMAXPROCS < 1 || report.Scale != 256 {
		t.Fatalf("bad report header: %+v", report)
	}

	names := map[string]experiments.BenchResult{}
	for _, r := range report.Results {
		names[r.Name] = r
	}
	want := []string{
		"insert/coldshot",
		"insert/warm",
		"engine/regime=smallb",
		"engine/regime=deepline",
		"eco/regime=bushy/mode=cold",
		"eco/regime=bushy/mode=delta",
		"yield/samples=16",
		"yield/samples=64",
		"yield/samples=64/robust",
		"obs/trace=on",
		"obs/trace=off",
		"batch/w1",
		"batch/w8",
	}
	for _, name := range want {
		r, ok := names[name]
		if !ok {
			t.Errorf("series %q missing from bench JSON", name)
			continue
		}
		if r.Iterations < 1 || r.NsPerOp <= 0 {
			t.Errorf("series %q has no measurement: %+v", name, r)
		}
	}
	for _, yb := range experiments.YieldBenchCases() {
		if r, ok := names[yb.Name]; ok && r.NetsPerSec <= 0 {
			t.Errorf("yield series %q missing its corners/s rate: %+v", yb.Name, r)
		}
	}
}

// TestBenchJSONToFile: the file path form writes the same document to disk.
func TestBenchJSONToFile(t *testing.T) {
	quickBench(t)
	path := t.TempDir() + "/bench.json"
	var out bytes.Buffer
	if err := run([]string{"-bench-json", path, "-scale", "256"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("file form leaked %d bytes to stdout", out.Len())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report experiments.BenchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("written bench JSON does not parse: %v", err)
	}
	if len(report.Results) == 0 {
		t.Fatal("written report carries no results")
	}
}

// TestRunExperiment: the -exp path renders a table to the writer.
func TestRunExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "listlen", "-scale", "256", "-reps", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"# List lengths", "max_list", "bn+1"} {
		if !strings.Contains(got, want) {
			t.Fatalf("experiment output missing %q:\n%s", want, got)
		}
	}
}

// TestRunUsageErrors: unknown experiments and flags surface as usage
// errors rather than panics.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-exp", "nope"}, {"-bogus"}} {
		if err := run(args, &bytes.Buffer{}); err != errUsage {
			t.Fatalf("run(%v) = %v, want errUsage", args, err)
		}
	}
	// -h prints usage and succeeds (exit 0), matching flag's convention.
	if err := run([]string{"-h"}, &bytes.Buffer{}); err != nil {
		t.Fatalf("run(-h) = %v, want nil", err)
	}
}
