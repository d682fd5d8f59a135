package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/bitmat"
	"repro/internal/obs"
)

// perLayer derives the per-layer metrics of a --trace 1 run: server and
// gateway counters over the measured phase, solver statistics from the
// responses, and layer timings from a traced in-process replay of the
// list, which runs twice (untraced, then traced) to price the tracing.
func perLayer(c config, w *workload, passes []*pass, mach machine, dir string, out io.Writer) (map[string]metric, []string, error) {
	ms := map[string]metric{}
	set := func(name string, v float64, unit string) { ms[name] = metric{v, unit} }

	// Solver statistics, as each cold response reports them (first pass;
	// every pass solves the same list).
	p0 := passes[0]
	var cold, pack, satNS, blocks, calls, conflicts float64
	for i, a := range p0.ans {
		if !a.ok || a.cacheHit || w.list[i].kind == kindHit {
			continue
		}
		cold++
		pack += float64(a.packNS)
		satNS += float64(a.satNS)
		blocks += float64(a.blocks)
		calls += float64(a.satCalls)
		conflicts += float64(a.conflicts)
	}
	set("core.pack_ms", ratio(pack, cold)/1e6, "ms")
	set("core.sat_ms", ratio(satNS, cold)/1e6, "ms")
	set("core.blocks", ratio(blocks, cold), "count")
	set("sat.calls", calls, "count")
	set("sat.conflicts", conflicts, "count")
	set("sat.us_per_conflict", ratio(satNS/1e3, conflicts), "us")

	// Serving-tier counters over the last pass's measured phase.
	last := passes[len(passes)-1]
	var queueP99, solveP50, hits, lookups, rejections, walBytes, syncs float64
	for k, b1 := range last.backend1 {
		b0 := last.backend0[k]
		queueP99 = max(queueP99, float64(b1.Solves.QueueWait.P99NS)/1e6)
		solveP50 = max(solveP50, float64(b1.Solves.Latency.P50NS)/1e6)
		c0, c1 := b0.Cache, b1.Cache
		hit := float64(c1.Hits + c1.DurableHits + c1.SharedHits - c0.Hits - c0.DurableHits - c0.SharedHits)
		hits += hit
		lookups += hit + float64(c1.Misses+c1.Uncacheable-c0.Misses-c0.Uncacheable)
		r0, r1 := b0.Requests, b1.Requests
		rejections += float64(r1.RejectedQueue + r1.RejectedQuota + r1.RejectedDrain + r1.RejectedBatch + r1.RejectedAuth -
			r0.RejectedQueue - r0.RejectedQuota - r0.RejectedDrain - r0.RejectedBatch - r0.RejectedAuth)
		if b1.Store != nil {
			walBytes += float64(b1.Store.WALBytes)
			syncs += float64(b1.Store.Flushes - b0.Store.Flushes)
		}
	}
	set("server.queue_wait_p99_ms", queueP99, "ms")
	set("server.solve_p50_ms", solveP50, "ms")
	set("server.cache_hit_ratio", ratio(hits, lookups), "ratio")
	set("server.rejections", rejections, "count")
	set("store.wal_bytes", walBytes, "bytes")
	set("store.syncs", syncs, "count")

	var solves, local, proxyP50, hedges, failovers, fillsSent, fillsDropped float64
	if g0, g1 := last.gw0, last.gw1; g1 != nil {
		solves = float64(g1.Requests.Solve - g0.Requests.Solve)
		local = float64(g1.Cache.Local.Hits - g0.Cache.Local.Hits)
		proxyP50 = float64(g1.Proxy.P50NS) / 1e6
		hedges = float64(g1.Routing.Hedges - g0.Routing.Hedges)
		failovers = float64(g1.Routing.Failovers - g0.Routing.Failovers)
		fillsSent = float64(g1.Replication.Sent - g0.Replication.Sent)
		fillsDropped = float64(g1.Replication.Dropped - g0.Replication.Dropped)
	}
	set("cluster.local_hit_ratio", ratio(local, solves), "ratio")
	set("cluster.proxied_frac", ratio(solves-local, solves), "ratio")
	set("cluster.proxy_latency_p50_ms", proxyP50, "ms")
	set("cluster.hedges", hedges, "count")
	set("cluster.failovers", failovers, "count")
	set("cluster.fills_sent", fillsSent, "count")
	set("cluster.fills_dropped", fillsDropped, "count")

	var reqs, allocs, gcs, accepts, conns, timedOut float64
	for _, p := range passes {
		reqs += float64(len(w.list))
		allocs += float64(p.allocBytes)
		gcs += float64(p.numGC)
		accepts = max(accepts, float64(p.accepts))
		conns = max(conns, float64(p.conns))
		timedOut += float64(p.timedOut)
	}
	set("cluster.backend_conns", accepts, "count")
	set("runtime.alloc_kb_per_req", allocs/1024/reqs, "KiB")
	set("runtime.gc_cycles_per_kreq", gcs*1000/reqs, "count")
	set("client.conns", conns, "count")
	set("client.timed_out", timedOut, "count")
	set("host.ref_ms", mach.RefMS, "ms")

	// The replay: prepared once, then run untraced and traced, each from
	// fresh layer state.
	pre, err := prepare(w)
	if err != nil {
		return nil, nil, err
	}
	_, _, plainWall, err := replayOnce(w, pre, filepath.Join(dir, "plain"), nil)
	if err != nil {
		return nil, nil, err
	}
	t := newSpanTracer()
	r, depths, tracedWall, err := replayOnce(w, pre, filepath.Join(dir, "traced"), t)
	if err != nil {
		return nil, nil, err
	}
	var errs []string
	for i, d := range depths {
		if a := p0.ans[i]; a.ok && a.optimal && d >= 0 && d != a.depth && len(errs) < 20 {
			errs = append(errs, fmt.Sprintf("request %d: served depth %d, solved in-process %d", i, a.depth, d))
		}
	}
	set("bench.trace_overhead_frac", tracedWall.Seconds()/plainWall.Seconds()-1, "ratio")

	dur := spanDurations(t.spans)
	set("wire.decode_us", median(dur["wire.decode"])/1e3, "us")
	set("wire.encode_us", median(dur["wire.encode"])/1e3, "us")
	set("bitmat.fingerprint_us", median(dur["bitmat.fingerprint"])/1e3, "us")
	set("bitmat.rank_us", mean(dur["bitmat.rank"])/1e3, "us")
	set("solvecache.hit_us", median(dur["solvecache.hit"])/1e3, "us")
	set("solvecache.lift_us", median(dur["solvecache.lift"])/1e3, "us")
	set("solvecache.hit_ratio", ratio(float64(r.hits), float64(len(w.list))), "ratio")
	set("fooling.exact_ms", mean(dur["fooling.exact"])/1e6, "ms")
	set("store.put_us", median(dur["store.put"])/1e3, "us")
	set("store.get_us", median(dur["store.get"])/1e3, "us")

	// The solver stages, from the servers' own spans of the first pass.
	sv, err := solverStages(w, p0, r)
	if err != nil {
		return nil, nil, err
	}
	set("bitmat.compress_us", mean(sv.compress)/1e3, "us")
	set("bitmat.decompose_us", mean(sv.decompose)/1e3, "us")
	set("rowpack.pack_ms", mean(sv.pack)/1e6, "ms")
	set("core.solve_ms", mean(sv.solve)/1e6, "ms")
	set("rowpack.opt_frac", ratio(float64(sv.packOpt), float64(len(sv.solve))), "ratio")
	set("fooling.useful_frac", ratio(float64(sv.foolUseful), float64(sv.foolCalls)), "ratio")
	fpAllocs, err := fingerprintAllocs(w)
	if err != nil {
		return nil, nil, err
	}
	set("bitmat.fingerprint_allocs", fpAllocs, "count")

	selfTimeTable(out, w.name, p0.traces, p0.sent, t.spans)
	if c.spans != "" {
		if err := writeSpans(c.spans, w, c.seed, mach, p0, t.spans); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", c.spans)
	}
	return ms, errs, nil
}

func replayOnce(w *workload, pre *prepared, dir string, t *tracer) (*replayer, []int, time.Duration, error) {
	r, err := newReplayer(w, pre, dir, t)
	if err != nil {
		return nil, nil, 0, err
	}
	depths, wall, err := r.run()
	if cerr := r.close(); err == nil {
		err = cerr
	}
	return r, depths, wall, err
}

// spanDurations groups span durations (ns) by name.
func spanDurations(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}

// fingerprintAllocs is the mean heap allocations of one ComputeFingerprint
// over the list's matrices (nothing else runs: the stacks are down).
func fingerprintAllocs(w *workload) (float64, error) {
	ms := make([]*bitmat.Matrix, len(w.list))
	for i := range w.list {
		m, err := matrix(w.body(&w.list[i]))
		if err != nil {
			return 0, err
		}
		ms[i] = m
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, m := range ms {
		bitmat.ComputeFingerprint(m)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(ms)), nil
}

// stages holds the solver-stage times (ns) of each cold solve of the first
// pass, as the servers' own spans record them, and the counts that need a
// stage's output.
type stages struct {
	compress, decompose, pack, solve []float64
	packOpt                          int // solves whose packing depth was final
	foolCalls, foolUseful            int // fooling.Exact calls; those that beat rank while packing did not
}

// solverStages reads the spans core records on every solve (preprocess,
// decompose, block, pack, recombine) from the servers' trace of each cold
// request of the first pass. fooling.useful_frac pairs each block's packing
// depth (the pack span's depth) with the replay's rank and fooling bounds
// for the same block.
func solverStages(w *workload, p0 *pass, r *replayer) (*stages, error) {
	sv := &stages{}
	for i, a := range p0.ans {
		if !a.ok || a.cacheHit || w.list[i].kind != kindCold {
			continue
		}
		tr := p0.traces[i]
		blockOf := map[string]int{} // block span ID -> block index
		packDepth := map[int]int{}  // block index -> packing depth
		var compress, decompose, pack float64
		first, last := int64(math.MaxInt64), int64(math.MinInt64)
		for _, s := range tr.Spans {
			switch s.Name {
			case "solve":
				if fp, ok := s.Attrs["fingerprint"]; ok && fp != r.hashes[i] {
					return nil, fmt.Errorf("request %d: trace of fingerprint %.12s, request has %.12s", i, fp, r.hashes[i])
				}
			case "block":
				k, err := strconv.Atoi(s.Attrs["block"])
				if err != nil {
					return nil, fmt.Errorf("request %d: block span without index", i)
				}
				blockOf[s.ID] = k
			}
			switch s.Name {
			case "preprocess", "decompose", "block", "recombine":
				first, last = min(first, s.StartUS), max(last, s.StartUS+s.DurUS)
			}
			switch s.Name {
			case "preprocess":
				compress += float64(s.DurUS) * 1e3
			case "decompose":
				decompose += float64(s.DurUS) * 1e3
			case "pack":
				pack += float64(s.DurUS) * 1e3
			}
		}
		for _, s := range tr.Spans {
			if s.Name == "pack" {
				d, err := strconv.Atoi(s.Attrs["depth"])
				k, ok := blockOf[s.Parent]
				if err != nil || !ok {
					return nil, fmt.Errorf("request %d: pack span without depth or block", i)
				}
				packDepth[k] = d
			}
		}
		if first > last {
			return nil, fmt.Errorf("request %d: cold answer without solver spans", i)
		}
		for k, b := range r.bounds[i] {
			d, ok := packDepth[k]
			if !ok {
				return nil, fmt.Errorf("request %d: no pack span for block %d of %d", i, k, len(r.bounds[i]))
			}
			sv.foolCalls++
			if b.fooling > b.rank && d > b.rank {
				sv.foolUseful++
			}
		}
		sv.compress = append(sv.compress, compress)
		sv.decompose = append(sv.decompose, decompose)
		sv.pack = append(sv.pack, pack)
		sv.solve = append(sv.solve, float64(last-first)*1e3)
		if a.heuristicDepth == a.depth {
			sv.packOpt++
		}
	}
	return sv, nil
}

// layerOf names the layer a span of the program belongs to.
var layerOf = map[string]string{
	"gw.solve":   "cluster.gateway",
	"proxy":      "cluster.proxy",
	"solve":      "server.solve",
	"queue":      "server.queue",
	"preprocess": "bitmat.compress",
	"decompose":  "bitmat.decompose",
	"block":      "core.block",
	"pack":       "rowpack.pack",
	"probe":      "sat.probe",
	"recombine":  "core.recombine",
	"rederive":   "core.rederive",
}

// replayedIn names the program span whose self time holds each replayed
// call.
var replayedIn = map[string]string{
	"wire.decode":        "unattributed",
	"wire.encode":        "unattributed",
	"bitmat.fingerprint": "server.solve, cluster.gateway",
	"bitmat.rank":        "core.block",
	"fooling.exact":      "core.block",
	"solvecache.hit":     "server.solve",
	"solvecache.lift":    "server.solve, cluster.gateway",
	"store.put":          "server.solve",
	"store.get":          "server.solve",
}

// selfTimeTable prints each layer's self time in the servers' traces of the
// first pass (a span's duration less the part of it its child spans cover)
// as a share of the client-measured request time of that pass. Client time
// outside the entry tier's root span (HTTP, connection handling, the wire
// decode before the trace starts and the encode after it ends, scheduling)
// is the "unattributed" row. A second table lists the replayed calls into
// layers the program has no span for, and which row of the first holds
// them.
func selfTimeTable(out io.Writer, workload string, traces []*obs.TraceJSON, http *sent, replay []span) {
	self := map[string]float64{}
	calls := map[string]int{}
	var total, rooted float64
	for i, tr := range traces {
		total += float64(http.lat[i])
		kids := map[string][][2]int64{}
		ids := map[string]bool{}
		for _, s := range tr.Spans {
			ids[s.ID] = true
		}
		for _, s := range tr.Spans {
			if s.Parent != "" && ids[s.Parent] {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartUS, s.StartUS + s.DurUS})
			} else {
				rooted += float64(s.DurUS) * 1e3
			}
		}
		for _, s := range tr.Spans {
			name := s.Name
			if l, ok := layerOf[name]; ok {
				name = l
			}
			self[name] += float64(s.DurUS-covered(s.StartUS, s.StartUS+s.DurUS, kids[s.ID])) * 1e3
			calls[name]++
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Fprintf(out, "self time per layer, %s, from the servers' spans (share of %.1f ms client request time, %d requests):\n",
		workload, total/1e6, len(traces))
	row := func(name string, n int, ns float64, share, in string) {
		fmt.Fprintf(out, "  %-34s %8d %12.3f ms %8s  %s\n", name, n, ns/1e6, share, in)
	}
	for _, n := range names {
		row(n, calls[n], self[n], fmt.Sprintf("%.1f%%", 100*self[n]/total), "")
	}
	row("unattributed (HTTP, wire, scheduling)", len(traces), total-rooted, fmt.Sprintf("%.1f%%", 100*(total-rooted)/total), "")

	rt := map[string]float64{}
	rc := map[string]int{}
	for _, s := range replay {
		if _, ok := replayedIn[s.Name]; ok {
			rt[s.Name] += float64(s.End - s.Start)
			rc[s.Name]++
		}
	}
	names = names[:0]
	for n := range rt {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return rt[names[a]] > rt[names[b]] })
	fmt.Fprintf(out, "replayed calls into layers without a span in the program, %s (same base; inside the row named):\n", workload)
	for _, n := range names {
		row(n, rc[n], rt[n], fmt.Sprintf("%.1f%%", 100*rt[n]/total), replayedIn[n])
	}
}

// covered is how much of [start, end) the intervals cover, counting
// overlapping intervals (blocks solved in parallel) once.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var sum int64
	cur := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

func writeSpans(path string, w *workload, seed int64, mach machine, p0 *pass, replay []span) error {
	http := p0.sent
	t0 := http.t0.UnixMicro()
	var reqs []span
	for i := range http.lat {
		root := len(reqs)
		reqs = append(reqs, span{Name: "request", Start: int64(http.start[i]), End: int64(http.start[i] + http.lat[i]), Parent: -1, Req: i})
		idx := map[string]int{}
		for _, s := range p0.traces[i].Spans {
			idx[s.ID] = len(reqs) + len(idx)
		}
		for _, s := range p0.traces[i].Spans {
			parent, ok := idx[s.Parent]
			if !ok {
				parent = root
			}
			start := (s.StartUS - t0) * 1e3
			reqs = append(reqs, span{Name: s.Name, Start: start, End: start + s.DurUS*1e3, Parent: parent, Req: i})
		}
	}
	doc := struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Machine  machine `json:"machine"`
		// Requests are the client-timed HTTP requests of the first pass,
		// each followed by the spans the servers recorded for it; Replay
		// the spans of the traced replay. Each list's times count from its
		// own phase's start.
		Requests []span `json:"requests"`
		Replay   []span `json:"replay"`
	}{w.name, seed, mach, reqs, replay}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(&doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
