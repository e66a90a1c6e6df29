package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestParseProcStat(t *testing.T) {
	// Field 2 may contain spaces and parentheses; utime and stime are
	// fields 14 and 15.
	line := "4242 (buffer kitd) (x)) S 1 4242 4242 0 -1 4194560 1523 0 0 0 731 129 0 0 20 0 9 0 123456 1234567 890 18446744073709551615\n"
	u, s, err := parseProcStat(line)
	if err != nil || u != 731 || s != 129 {
		t.Fatalf("parseProcStat = %d, %d, %v; want 731, 129", u, s, err)
	}
	if _, _, err := parseProcStat("4242 (x) S 1 2 3"); err == nil {
		t.Error("short stat line accepted")
	}
	if _, _, err := parseProcStat("no command field"); err == nil {
		t.Error("line without a command field accepted")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tbufferkitd\nVmPeak:\t 1262348 kB\nVmHWM:\t   50268 kB\nVmRSS:\t   48120 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 50268<<10 {
		t.Fatalf("parseVmHWM = %d, %v; want %d", got, err, 50268<<10)
	}
	if _, err := parseVmHWM("Name:\tx\nVmRSS:\t 1 kB\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
	if _, err := parseVmHWM("VmHWM:\t 12 MB\n"); err == nil {
		t.Error("VmHWM in an unexpected unit accepted")
	}
}

func TestParseMemStatsFromHeapProfile(t *testing.T) {
	runtime.GC() // at least one GC, so PauseNs has an entry
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	var want runtime.MemStats
	runtime.ReadMemStats(&want)
	got, err := parseMemStats(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	// The profile was rendered just before want was read: counters only
	// grow, and no GC ran in between unless NumGC moved.
	if got.Mallocs == 0 || got.Mallocs > want.Mallocs || got.TotalAlloc == 0 || got.TotalAlloc > want.TotalAlloc {
		t.Errorf("Mallocs/TotalAlloc = %d/%d, live %d/%d", got.Mallocs, got.TotalAlloc, want.Mallocs, want.TotalAlloc)
	}
	if got.NumGC == 0 || got.NumGC > want.NumGC {
		t.Errorf("NumGC = %d, live %d", got.NumGC, want.NumGC)
	}
	if got.NumGC == want.NumGC && got.PauseNs != want.PauseNs {
		t.Error("PauseNs differs from the live MemStats")
	}
	if _, err := parseMemStats("heap profile: 0: 0 [0: 0] @ heap/1048576\n"); err == nil {
		t.Error("profile without the MemStats trailer accepted")
	}
}

func TestParseMemStatsSample(t *testing.T) {
	pause := make([]string, 256)
	for i := range pause {
		pause[i] = "0"
	}
	pause[0], pause[1], pause[2] = "1000", "2000", "4000"
	text := strings.Join([]string{
		"# runtime.MemStats",
		"# Alloc = 123",
		"# TotalAlloc = 987654",
		"# Mallocs = 4321",
		"# Frees = 4000",
		fmt.Sprintf("# PauseNs = [%s]", strings.Join(pause, " ")),
		"# NumGC = 3",
		"# NumForcedGC = 0",
	}, "\n")
	m, err := parseMemStats(text)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalAlloc != 987654 || m.Mallocs != 4321 || m.NumGC != 3 || m.PauseNs[2] != 4000 {
		t.Fatalf("parsed %+v", m)
	}
	// GCs 2 and 3 ran between the snapshots: their pauses are slots 1, 2.
	before := m
	before.NumGC = 1
	if d := gcPause(before, m); d != 6000*time.Nanosecond {
		t.Errorf("gcPause = %v, want 6µs", d)
	}
	if d := gcPause(m, m); d != 0 {
		t.Errorf("gcPause without GCs = %v", d)
	}
}

func TestGCPauseScalesBeyondTheRing(t *testing.T) {
	var before, after memStats
	for i := range after.PauseNs {
		after.PauseNs[i] = 10
	}
	after.NumGC = 512 // 512 GCs, only the last 256 pauses retained
	if d := gcPause(before, after); d != 512*10 {
		t.Errorf("gcPause = %d ns, want %d", d, 512*10)
	}
}
