package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// fingerprint describes the host a result was measured on.
func fingerprint() map[string]any {
	fp := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     readTrim("/proc/sys/kernel/osrelease"),
		"rmem_max":   readTrim("/proc/sys/net/core/rmem_max"),
		"commit":     commit(),
	}
	return fp
}

// cpuJiffies returns the host's total and steal CPU time from /proc/stat,
// in clock ticks: the steal share over a run shows how much of the
// machine a hypervisor gave to other guests while the run measured.
func cpuJiffies() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		var x float64
		if _, err := fmt.Sscan(v, &x); err != nil {
			return 0, 0
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

// hostRefMs times a fixed task that uses none of the program's code
// (SHA-256 over 16 MiB): read next to the results, it shows whether the
// host itself ran faster or slower, which on shared machines drifts by
// tens of percent over minutes without showing as steal.
func hostRefMs() float64 {
	buf := make([]byte, 1<<20)
	h := sha256.New()
	t0 := time.Now()
	for i := 0; i < 16; i++ {
		h.Write(buf)
	}
	h.Sum(nil)
	return float64(time.Since(t0).Microseconds()) / 1000
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash is set at build time (run.sh) to a hash of the checkout's Go
// sources, which identifies the code measured where no VCS metadata is.
var sourceHash = "unknown"

// commit is the VCS revision stamped into the binary when it was built
// from a git checkout, else the source hash.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "src-" + sourceHash
}
