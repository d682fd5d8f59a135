package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile is the nearest-rank p-quantile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS sets the kernel's peak resident set size of this process
// (VmHWM), which hosts the servers, back to its current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set size of this process since the last
// resetPeakRSS: binary, Go heap, stacks and any C memory alike.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTimes is this process's user+system CPU time and the host's steal time
// (CPU time the hypervisor gave to other guests, over all CPUs).
func cpuTimes() (proc, steal time.Duration) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		proc = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
		if len(f) > 8 {
			t, _ := strconv.ParseInt(f[8], 10, 64)
			steal = time.Duration(t) * 10 * time.Millisecond // USER_HZ = 100
		}
	}
	return proc, steal
}

// hostRefMS is the machine-speed probe: the median time to SHA-256 a fixed
// 4 MiB buffer, five times. It depends on nothing in the repository, so a
// run whose numbers moved together with this one ran on a slower host.
func hostRefMS() float64 {
	buf := make([]byte, 4<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	var ms []float64
	for range 5 {
		t0 := time.Now()
		sha256.Sum256(buf)
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms)
}

// machine is the record printed with every run.
type machine struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	RefMS      float64 `json:"host_ref_ms"`
}

func machineRecord() machine {
	return machine{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		RefMS:      hostRefMS(),
	}
}

func (m machine) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s host.ref_ms=%.3f",
		m.CPU, m.NumCPU, m.GOMAXPROCS, m.Go, m.RefMS)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// printMetrics writes one metric per line, sorted by name.
func printMetrics(out io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s metrics:\n", title)
	for _, n := range names {
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
