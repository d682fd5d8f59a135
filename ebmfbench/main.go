// Command ebmfbench is the seeded end-to-end benchmark of the ebmfd daemon
// and the ebmfgw gateway. It hosts the servers in-process on loopback,
// drives them closed-loop with a seeded request list, checks every answer,
// and prints its metrics; the last line of standard output is one JSON
// object. See README.md for the workloads and the metric-to-layer map.
//
// Usage (from the repository root):
//
//	bash ebmfbench/run.sh --workload cold-paper --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 also replays one pass
// through each layer's public functions with spans, prints a self-time
// table and the per-layer metrics, and writes the spans as JSON to
// .bench_build/spans-<workload>-<seed>.json. Scratch stores live under
// .bench_build/tmp and are removed at the end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     size
	minPass  int    // passes run even when --seconds is already spent
	tmp      string // scratch directory for stores (removed at the end)
	spans    string // where --trace 1 writes its spans ("" = nowhere)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "workload: cold-paper, hot-resubmit or fleet-mixed")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 20, "measure whole undisturbed passes until this much time has been measured")
	trace := flag.Int("trace", 0, "1 = per-layer run: traced replay, self-time table and per-layer metrics")
	flag.Parse()
	c.trace = *trace == 1
	c.size, c.minPass, c.tmp = full, 3, filepath.Join(".bench_build", "tmp")
	if c.trace {
		c.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", c.workload, c.seed))
	}
	res, err := run(c, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ebmfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ebmfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload and returns the result; human-readable lines
// (machine record, sample counts, tables) go to out.
func run(c config, out io.Writer) (*result, error) {
	mach := machineRecord()
	fmt.Fprintf(out, "machine: %s\n", mach)
	w, err := buildWorkload(c.workload, c.seed, c.size)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.tmp, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	classDepth := make([]int, numClasses(w))
	var passes, calm []*pass
	var measured, calmMeasured time.Duration
	for len(calm) < c.minPass || calmMeasured.Seconds() < c.seconds {
		if len(passes) >= c.minPass && measured.Seconds() >= 2*c.seconds {
			break // the host stayed disturbed; settle for the least disturbed passes
		}
		p, err := runPass(w, filepath.Join(dir, fmt.Sprintf("pass%d", len(passes))), classDepth, len(passes) == 0, c.trace)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(passes), err)
		}
		passes = append(passes, p)
		measured += p.measured
		mark := ""
		if p.disturbed() {
			mark = " (disturbed)"
		} else {
			calm = append(calm, p)
			calmMeasured += p.measured
		}
		fmt.Fprintf(out, "pass %d: setup %.3f s, measured %.3f s, %.1f req/s, p50 %.4f ms, p99 %.3f ms, peak %.1f MB, cpu %.3f s, steal %.2f s%s, host.ref_ms %.3f\n",
			len(passes), p.setup.Seconds(), p.measured.Seconds(), float64(len(w.list))/p.measured.Seconds(),
			percentile(ms(p.lat), 0.50), percentile(ms(p.lat), 0.99), p.peakMB, p.cpu.Seconds(), p.steal.Seconds(), mark, hostRefMS())
	}
	used := calm
	if len(used) < c.minPass {
		used = leastStolen(passes, c.minPass)
	}
	e2e, res := endToEnd(w, passes, used)
	fmt.Fprintf(out, "workload %s seed %d: %d passes (%d timed), %d clients, %d requests per pass, %d latency samples timed, %.3f s measured\n",
		w.name, c.seed, len(passes), len(used), clients, len(w.list), len(used)*len(w.list), measured.Seconds())
	for _, p := range passes {
		for _, e := range p.errs {
			fmt.Fprintf(os.Stderr, "ebmfbench: %s: %s\n", w.name, e)
			res.Correct = false
		}
	}
	printMetrics(out, "end-to-end", e2e)
	res.Metrics = e2e
	if !c.trace {
		return res, nil
	}

	layers, errs, err := perLayer(c, w, passes, mach, filepath.Join(dir, "replay"), out)
	if err != nil {
		return nil, err
	}
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "ebmfbench: %s: %s\n", w.name, e)
		res.Correct = false
	}
	printMetrics(out, "per-layer", layers)
	res.Metrics = layers
	return res, nil
}

func numClasses(w *workload) int {
	n := 0
	for _, reqs := range [][]request{w.warm, w.list} {
		for _, r := range reqs {
			n = max(n, r.class+1)
		}
	}
	return n
}

// minP99Samples is the pass size that leaves ten samples beyond its p99.
const minP99Samples = 1000

// maxStealFrac is the host steal time, summed over the CPUs, beyond which a
// pass counts as disturbed, as a share of the pass's measured time. While
// the hypervisor runs other guests on this machine's CPUs, requests wait
// for a CPU whatever the program does: on the shared 2-vCPU host this was
// tuned on, cold-paper passes with 1–3 s of steal took 10–12 s against
// 8.5 s, and undisturbed passes showed under 5%.
const maxStealFrac = 0.05

func (p *pass) disturbed() bool { return p.steal.Seconds() > maxStealFrac*p.measured.Seconds() }

// leastStolen returns the n passes with the smallest steal share.
func leastStolen(passes []*pass, n int) []*pass {
	s := append([]*pass(nil), passes...)
	sort.SliceStable(s, func(a, b int) bool {
		return s[a].steal.Seconds()/s[a].measured.Seconds() < s[b].steal.Seconds()/s[b].measured.Seconds()
	})
	return s[:min(n, len(s))]
}

// endToEnd derives the user-visible metrics. Every pass's answers count
// towards the counts and fractions; the timings come from the passes in
// used. Throughput, the median and p99 are medians over those passes of
// each pass's value, so a slow stretch that spans a minority of them does
// not move them. A pass shorter than minP99Samples has fewer than ten
// samples beyond its own p99; then p99 pools the used passes' samples
// instead. max_rss_mb is the median of each measured phase's peak RSS, so
// it does not grow with the number of passes a faster program fits into a
// run.
func endToEnd(w *workload, passes, used []*pass) (map[string]metric, *result) {
	res := &result{Correct: true}
	var optimal, depth int
	for _, p := range passes {
		res.Attempted += len(w.list)
		res.Failed += p.failed
		optimal += p.optimal
		depth += p.depth
	}
	var all, rps, p50, p99, peaks, setups []float64
	for _, p := range used {
		lat := ms(p.lat)
		all = append(all, lat...)
		rps = append(rps, float64(len(w.list)-p.failed)/p.measured.Seconds())
		p50 = append(p50, percentile(lat, 0.50))
		p99 = append(p99, percentile(lat, 0.99))
		peaks = append(peaks, p.peakMB)
		setups = append(setups, p.setup.Seconds())
	}
	ok := float64(res.Attempted - res.Failed)
	if res.Failed > 0 {
		res.Correct = false
	}
	tail := median(p99)
	if len(w.list) < minP99Samples {
		tail = percentile(all, 0.99)
	}
	return map[string]metric{
		"throughput_rps": {median(rps), "1/s"},
		"latency_p50_ms": {median(p50), "ms"},
		"latency_p99_ms": {tail, "ms"},
		"success_frac":   {ok / float64(res.Attempted), "ratio"},
		"optimal_frac":   {ratio(float64(optimal), ok), "ratio"},
		"mean_depth":     {ratio(float64(depth), ok), "rects"},
		"max_rss_mb":     {median(peaks), "MB"},
		"setup_s":        {median(setups), "s"},
	}, res
}
