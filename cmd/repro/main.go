// Command repro regenerates the paper's evaluation: Table 1, Figure 3 and
// Figure 4, plus two supporting studies (library-reduction quality loss and
// candidate-list-length analysis). Results and commentary are recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	repro -exp all               # full paper scale, takes a minute or two
//	repro -exp fig3 -scale 4     # quarter-scale quick look
//	repro -exp table1 -csv
//	repro -bench-json BENCH_engine.json -scale 4
//
// -bench-json times every series of the engine benchmark suite
// (experiments.Suite: cold vs warm insertion, the warm-engine regimes, the
// ECO, yield, chip and observability series, and batch throughput) and
// writes one JSON document tracked as a BENCH_*.json trajectory. The root
// BenchmarkSuite runs the same series under the same names.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"

	"bufferkit/internal/experiments"
)

func main() {
	// Timing binary: relax the collector so measurements reflect the
	// algorithms rather than GC pacing (documented in EXPERIMENTS.md).
	debug.SetGCPercent(400)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		if err == errUsage {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks a bad invocation (exit code 2, matching flag's own
// convention).
var errUsage = fmt.Errorf("usage error")

// run executes one repro invocation. stdout receives the tables (and the
// bench JSON when -bench-json is "-"); it is a parameter so the command is
// testable without subprocesses.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "experiment: table1, fig3, fig4, libreduce, listlen, all")
		scale     = fs.Int("scale", 1, "divide the paper's m and n by this factor (1 = full scale)")
		reps      = fs.Int("reps", 5, "timed samples per cell, interleaved across the table (tables report medians)")
		seed      = fs.Int64("seed", experiments.DefaultSeed, "workload seed")
		csv       = fs.Bool("csv", false, "emit CSV instead of aligned text")
		benchJSON = fs.String("bench-json", "", "run the engine/batch benchmarks and write them as JSON to this file ('-' for stdout), instead of -exp")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, exit 0
		}
		return errUsage
	}

	cfg := experiments.Config{Scale: *scale, Reps: *reps, Seed: *seed, Out: stdout, CSV: *csv}
	if *benchJSON != "" {
		out := stdout
		if *benchJSON != "-" {
			f, err := os.Create(*benchJSON)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		return experiments.BenchJSON(cfg, out)
	}
	fns := map[string]func(experiments.Config) error{
		"table1":    experiments.Table1,
		"fig3":      experiments.Fig3,
		"fig4":      experiments.Fig4,
		"libreduce": experiments.LibReduce,
		"listlen":   experiments.ListLen,
		"all":       experiments.All,
	}
	fn, ok := fns[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "repro: unknown -exp %q\n", *exp)
		return errUsage
	}
	return fn(cfg)
}
