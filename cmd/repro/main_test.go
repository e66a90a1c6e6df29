package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"slices"
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

// suiteNames is the full list of engine benchmark series, in
// BENCH_engine.json order.
var suiteNames = []string{
	"insert/coldshot",
	"insert/warm",
	"engine/regime=smallb",
	"engine/regime=largeb",
	"engine/regime=line",
	"engine/regime=deepline",
	"eco/regime=bushy/mode=cold",
	"eco/regime=bushy/mode=delta",
	"eco/regime=wide/mode=cold",
	"eco/regime=wide/mode=delta",
	"yield/samples=16",
	"yield/samples=64",
	"yield/samples=64/robust",
	"chip/uncontended",
	"chip/contended",
	"obs/trace=on",
	"obs/trace=off",
	"batch/w1",
	"batch/w2",
	"batch/w4",
	"batch/w8",
}

// TestBenchJSONOutput: `repro -bench-json -` must emit a parseable report
// carrying every series of the engine suite exactly once, in suite order,
// each measured, with the throughput and convergence rates the series
// report through testing.B.ReportMetric. The committed BENCH_engine.json
// must carry the same series.
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
	if report.GoVersion == "" || report.GOMAXPROCS < 1 || report.GOGC < 1 ||
		report.CPUModel == "" || report.Scale != 256 {
		t.Fatalf("bad report header: %+v", report)
	}

	var got, suite []string
	for _, r := range report.Results {
		got = append(got, r.Name)
	}
	for _, s := range experiments.Suite(experiments.Config{}) {
		suite = append(suite, s.Name)
	}
	if !slices.Equal(got, suiteNames) {
		t.Fatalf("bench JSON series:\n%q\nwant:\n%q", got, suiteNames)
	}
	if !slices.Equal(suite, suiteNames) {
		t.Fatalf("experiments.Suite series:\n%q\nwant:\n%q", suite, suiteNames)
	}
	data, err := os.ReadFile("../../BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed experiments.BenchReport
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatalf("committed BENCH_engine.json does not parse: %v", err)
	}
	var committedNames []string
	for _, r := range committed.Results {
		committedNames = append(committedNames, r.Name)
	}
	if !slices.Equal(committedNames, suiteNames) {
		t.Fatalf("committed BENCH_engine.json series:\n%q\nwant:\n%q", committedNames, suiteNames)
	}
	for _, r := range report.Results {
		if r.Iterations < 1 || r.NsPerOp <= 0 {
			t.Errorf("series %q has no measurement: %+v", r.Name, r)
		}
		for _, prefix := range []string{"batch/", "yield/", "chip/"} {
			if strings.HasPrefix(r.Name, prefix) && r.NetsPerSec <= 0 {
				t.Errorf("series %q missing nets_per_sec: %+v", r.Name, r)
			}
		}
		if strings.HasPrefix(r.Name, "chip/") && r.RoundsToFeasible < 1 {
			t.Errorf("series %q missing rounds_to_feasible: %+v", r.Name, r)
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
