package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one bufferkitd process under test: started with its default
// flags plus a loopback service port and the opt-in pprof listener, which
// is where the benchmark reads the server's runtime.MemStats.
type child struct {
	cmd      *exec.Cmd
	baseURL  string
	pprofURL string
	exited   chan struct{} // closed once the process is reaped
	exitErr  error
	stopSent bool
	logDrain chan struct{} // closed when stderr reaches EOF
}

// listenRE matches bufferkitd's "listening" and "pprof listening" log
// lines (slog text format) and captures the bound address.
var listenRE = regexp.MustCompile(`msg=("pprof listening"|listening) addr=(\S+)`)

// startChild launches bin and waits until both listeners are bound and
// GET /readyz answers 200.
func startChild(bin string) (*child, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0")
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bufferkitd: %w", err)
	}
	c := &child{cmd: cmd, exited: make(chan struct{}), logDrain: make(chan struct{})}
	addrs := make(chan [2]string, 2) // one send per listener
	go func() {
		// Read the address lines, then keep draining the request-summary
		// log so the child never blocks on a full pipe.
		defer close(c.logDrain)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				addrs <- [2]string{m[1], m[2]}
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	go func() {
		<-c.logDrain
		c.exitErr = cmd.Wait()
		close(c.exited)
	}()
	deadline := time.After(20 * time.Second)
	for c.baseURL == "" || c.pprofURL == "" {
		select {
		case a := <-addrs:
			if a[0] == "listening" {
				c.baseURL = "http://" + a[1]
			} else {
				c.pprofURL = "http://" + a[1]
			}
		case <-c.exited:
			return nil, fmt.Errorf("bufferkitd exited during start-up: %v", c.exitErr)
		case <-deadline:
			c.stop()
			return nil, errors.New("bufferkitd did not report its listen addresses within 20s")
		}
	}
	if err := c.waitReady(20 * time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// waitReady polls GET /readyz until it answers 200.
func (c *child) waitReady(limit time.Duration) error {
	end := time.Now().Add(limit)
	for {
		resp, err := http.Get(c.baseURL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(end) {
			return fmt.Errorf("bufferkitd not ready within %v (last error %v)", limit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain to finish, and kills the
// process if it has not exited within 10 s. It always reaps the child.
func (c *child) stop() {
	if c == nil {
		return
	}
	if !c.stopSent {
		c.stopSent = true
		c.cmd.Process.Signal(syscall.SIGTERM)
	}
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
	}
}

// cpuTime returns the child's accumulated user+system CPU time, all
// threads, from /proc/<pid>/stat.
func (c *child) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	utime, stime, err := parseProcStat(string(data))
	if err != nil {
		return 0, err
	}
	return ticks(utime + stime), nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times. Linux
// fixes it at 100 on every architecture the Go runtime supports.
const clockTicks = 100

func ticks(n int64) time.Duration { return time.Duration(n) * time.Second / clockTicks }

// peakRSS returns the child's resident-set high-water mark (VmHWM) in
// bytes, from /proc/<pid>/status.
func (c *child) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}

// memStats reads the child's runtime.MemStats from the pprof heap
// profile's debug=1 rendering.
func (c *child) memStats(ctx context.Context) (memStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.pprofURL+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return memStats{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return memStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return memStats{}, fmt.Errorf("heap profile: HTTP %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return memStats{}, err
	}
	return parseMemStats(string(body))
}

// parseProcStat extracts utime and stime (fields 14 and 15, in clock
// ticks) from a /proc/<pid>/stat line. The command name (field 2) is
// parenthesized and may itself contain spaces or parentheses, so fields
// are counted from the last ')'.
func parseProcStat(s string) (utime, stime int64, err error) {
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); field k is f[k-3].
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	if utime, err = strconv.ParseInt(f[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat utime: %w", err)
	}
	if stime, err = strconv.ParseInt(f[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime, stime, nil
}

// parseVmHWM returns the VmHWM line of /proc/<pid>/status in bytes.
func parseVmHWM(s string) (int64, error) {
	for _, line := range strings.Split(s, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// memStats is the subset of runtime.MemStats the benchmark reads.
type memStats struct {
	Mallocs    uint64
	TotalAlloc uint64
	NumGC      uint32
	// PauseNs is the runtime's circular buffer of recent GC pause times:
	// the pause of GC number k (1-based) is at PauseNs[(k+255)%256].
	PauseNs [256]uint64
}

// parseMemStats reads the "# runtime.MemStats" trailer of a
// /debug/pprof/heap?debug=1 response.
func parseMemStats(s string) (memStats, error) {
	var m memStats
	seen := 0
	for _, line := range strings.Split(s, "\n") {
		key, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok || !strings.HasPrefix(line, "# ") {
			continue
		}
		var err error
		switch key {
		case "Mallocs":
			m.Mallocs, err = strconv.ParseUint(val, 10, 64)
		case "TotalAlloc":
			m.TotalAlloc, err = strconv.ParseUint(val, 10, 64)
		case "NumGC":
			var n uint64
			n, err = strconv.ParseUint(val, 10, 32)
			m.NumGC = uint32(n)
		case "PauseNs":
			f := strings.Fields(strings.Trim(val, "[]"))
			if len(f) != len(m.PauseNs) {
				return m, fmt.Errorf("memstats: PauseNs has %d entries, want %d", len(f), len(m.PauseNs))
			}
			for i, x := range f {
				if m.PauseNs[i], err = strconv.ParseUint(x, 10, 64); err != nil {
					break
				}
			}
		default:
			continue
		}
		if err != nil {
			return m, fmt.Errorf("memstats %s: %w", key, err)
		}
		seen++
	}
	if seen != 4 {
		return m, errors.New("memstats: heap profile lacks the runtime.MemStats trailer")
	}
	return m, nil
}

// gcPause sums the GC pauses between two snapshots. When more GCs ran than
// the runtime's 256-entry pause buffer holds, the retained pauses are
// scaled up to the full count.
func gcPause(before, after memStats) time.Duration {
	n := after.NumGC - before.NumGC
	kept := min(n, uint32(len(after.PauseNs)))
	var sum uint64
	for k := after.NumGC - kept + 1; k <= after.NumGC && kept > 0; k++ {
		sum += after.PauseNs[(k+255)%256]
	}
	if kept > 0 && kept < n {
		sum = sum * uint64(n) / uint64(kept)
	}
	return time.Duration(sum)
}
