package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// epoch is the first clock read; host timestamps are offsets from it.
var epoch time.Time

// now is the benchmark's only wall-clock read. Everything it times is the
// *host* cost of running the simulator; no value derived from it reaches a
// simulated statistic (those are hashed into sim_digest and must repeat).
// time.Since on a monotonic epoch is one clock read where time.Now is two,
// which matters at two reads per traced call.
func now() time.Duration {
	if epoch.IsZero() {
		//lint:ignore wallclock anchors the host clock; see now
		epoch = time.Now()
	}
	//lint:ignore wallclock the benchmark times the simulator's host cost from outside the determinism contract
	return time.Since(epoch)
}

// hostFingerprint is printed with every run: host-clock numbers compare only
// between runs whose fingerprints match.
func hostFingerprint() string {
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			load = f[0]
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s loadavg=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), load)
}

// peakRSSMB is the process's high-water resident set. Each workload runs in
// its own process, so this is the workload's own peak.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
