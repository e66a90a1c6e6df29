package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// steady runs the benchmark o.steady times as fresh processes on seeds
// o.seed, o.seed+1, ..., and prints each metric's median, quartiles,
// min/max and the quartile distance as a share of the median — the spread
// the bounds in BENCHMARK.json are set from.
func steady(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for k := range o.steady {
		seed := o.seed + int64(k)
		cmd := exec.Command(self,
			"-workload", o.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace),
			"-bufferkitd", o.bufferkitd, "-out", o.out)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			return fmt.Errorf("seed %d: no result line (%v, %v)", seed, err, jerr)
		}
		if err != nil || !res.Correct {
			return fmt.Errorf("seed %d: run failed (correct=%t, %v)", seed, res.Correct, err)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "steady: seed %d done\n", seed)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%-34s %-6s %12s %12s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, name := range slices.Sorted(maps.Keys(values)) {
		xs := values[name]
		med := median(xs)
		q1, q3 := quartiles(xs)
		fmt.Fprintf(&buf, "%-34s %-6s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f\n", name, units[name],
			med, q1, q3, slices.Min(xs), slices.Max(xs), (q3-q1)/med)
	}
	for _, name := range slices.Sorted(maps.Keys(values)) {
		fmt.Fprintf(&buf, "%s per run: %.5g\n", name, values[name])
	}
	fmt.Print(buf.String())
	return nil
}
