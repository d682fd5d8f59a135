package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

// sent is the client-side record of one closed-loop run over a request list.
// Response bodies are kept, for the checker, in one buffer per client, so
// the record holds a handful of pointers however long the list is.
type sent struct {
	start   []time.Duration // send time, from the loop's start
	lat     []time.Duration // send to last body byte
	status  []int           // 0 when the transport failed
	who     []int           // the client that sent it: its body is in bufs[who]
	off     []int           // the body is bufs[who][off:end]
	end     []int
	bufs    []bytes.Buffer
	t0      time.Time // the loop's start
	elapsed time.Duration
}

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func (s *sent) body(i int) []byte { return s.bufs[s.who[i]].Bytes()[s.off[i]:s.end[i]] }

// sendAll drives reqs through clients closed-loop callers: each sends its
// next request only after reading the previous reply to its last byte, so
// the keep-alive connection is reused.
func sendAll(hc *http.Client, url string, w *workload, reqs []request, clients int) *sent {
	n := len(reqs)
	out := &sent{
		start: make([]time.Duration, n), lat: make([]time.Duration, n), status: make([]int, n),
		who: make([]int, n), off: make([]int, n), end: make([]int, n), bufs: make([]bytes.Buffer, clients),
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	out.t0 = t0
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := &out.bufs[c]
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				out.who[i], out.off[i] = c, buf.Len()
				ts := time.Now()
				out.start[i] = ts.Sub(t0)
				out.status[i] = post(hc, url, w.body(&reqs[i]), buf)
				out.lat[i] = time.Since(ts)
				out.end[i] = buf.Len()
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(t0)
	return out
}

// post sends one solve and appends the whole response body (or the
// transport error) to buf.
func post(hc *http.Client, url string, body []byte, buf *bytes.Buffer) int {
	resp, err := hc.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		buf.WriteString(err.Error())
		return 0
	}
	defer resp.Body.Close()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		buf.WriteString(err.Error())
		return 0
	}
	return resp.StatusCode
}

// answer is what the metrics need from one checked response. Like request
// it holds no pointers, however many passes a run keeps.
type answer struct {
	ok                       bool // 2xx, passed the checker, not deadline-ended
	optimal, cacheHit        bool
	depth, heuristicDepth    int
	blocks, satCalls         int
	packNS, satNS, conflicts int64
}

// pass is one fresh stack, warmed up and then measured over the whole list.
// Passes after the first keep only their latencies and counts: what a run
// retains must not grow the heap (and so slow the collector's pace) from
// one pass to the next.
type pass struct {
	setup, measured time.Duration
	lat             []time.Duration
	failed          int
	timedOut        int
	optimal, depth  int // over correct answers
	errs            []string
	conns           int64 // connections the clients dialed, warm-up included

	backend0, backend1 []server.MetricsSnapshot
	gw0, gw1           *cluster.MetricsSnapshot
	accepts            int64 // ebmfd accepts during the measured phase
	allocBytes, numGC  uint64
	cpu, steal         time.Duration // process CPU time and host steal time during the measured phase
	peakMB             float64       // peak RSS of the process during the measured phase

	// Kept by the first pass only, for the per-layer metrics; traces only
	// in a traced run: the entry tier's trace of each request of the list.
	sent   *sent
	ans    []answer
	traces []*obs.TraceJSON
}

// runPass starts a fresh stack in dir, runs the warm-up and a forced GC
// (together the set-up), measures one pass over w.list and tears the stack
// down. classDepth carries each working-set class's cold depth across
// passes; every pass must reproduce it. keep keeps the pass's requests and
// answers; traced also keeps the servers' own trace of every request.
func runPass(w *workload, dir string, classDepth []int, keep, traced bool) (*pass, error) {
	p := &pass{}
	ring := 0
	if keep && traced {
		ring = len(w.warm) + len(w.list)
	}
	t0 := time.Now()
	st, err := startStack(w.fleet, dir, ring)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := st.close(); err != nil {
			p.errs = append(p.errs, fmt.Sprintf("stack close: %v", err))
		}
	}()
	hc, dials := newClient(clients)
	defer hc.CloseIdleConnections()
	mc, _ := newClient(1) // metrics reads stay off the measured clients' count
	defer mc.CloseIdleConnections()

	warm := sendAll(hc, st.url, w, w.warm, clients)
	for i := range w.warm {
		res, err := check(w, &w.warm[i], warm.status[i], warm.body(i), classDepth)
		if err != nil {
			p.errs = append(p.errs, fmt.Sprintf("warm-up request %d: %v", i, err))
			continue
		}
		if c := w.warm[i].class; c >= 0 && classDepth[c] == 0 {
			classDepth[c] = res.Depth
		}
	}
	if w.fleet {
		// Every warm-up request is a fresh solve, which replicates once.
		if err := st.waitFills(mc, int64(len(w.warm))); err != nil {
			return nil, err
		}
	}
	// A forced GC that also returns the freed pages to the OS, so each
	// measured phase starts from the stack's live memory and its peak RSS
	// does not carry what earlier passes left mapped.
	debug.FreeOSMemory()
	p.setup = time.Since(t0)

	if p.backend0, err = st.backendMetrics(mc); err != nil {
		return nil, err
	}
	if p.gw0, err = st.gatewayMetrics(mc); err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	a0 := st.accepts.Load()
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}
	cpu0, steal0 := cpuTimes()
	sent := sendAll(hc, st.url, w, w.list, clients)
	cpu1, steal1 := cpuTimes()
	p.cpu, p.steal = cpu1-cpu0, steal1-steal0
	if p.peakMB, err = peakRSSMB(); err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}
	p.accepts = st.accepts.Load() - a0
	runtime.ReadMemStats(&m1)
	p.measured, p.lat = sent.elapsed, sent.lat
	p.allocBytes, p.numGC = m1.TotalAlloc-m0.TotalAlloc, uint64(m1.NumGC-m0.NumGC)
	if p.backend1, err = st.backendMetrics(mc); err != nil {
		return nil, err
	}
	if p.gw1, err = st.gatewayMetrics(mc); err != nil {
		return nil, err
	}
	if ring > 0 {
		if p.traces, err = listTraces(st.tracer, len(w.list)); err != nil {
			return nil, err
		}
	}
	p.conns = dials.Load()
	if p.conns > int64(clients) {
		p.errs = append(p.errs, fmt.Sprintf("clients dialed %d connections for %d callers", p.conns, clients))
	}

	ans := make([]answer, len(w.list))
	for i := range w.list {
		res, err := check(w, &w.list[i], sent.status[i], sent.body(i), classDepth)
		if err == nil {
			ans[i] = answer{ok: true, optimal: res.Optimal, cacheHit: res.CacheHit, depth: res.Depth,
				heuristicDepth: res.HeuristicDepth, blocks: res.Blocks, satCalls: res.SATCalls, packNS: res.PackNS, satNS: res.SATNS, conflicts: res.Conflicts}
			p.depth += res.Depth
			if res.Optimal {
				p.optimal++
			}
			continue
		}
		p.failed++
		if errors.Is(err, errDeadline) {
			p.timedOut++
		}
		if len(p.errs) < 20 {
			p.errs = append(p.errs, fmt.Sprintf("request %d: %v", i, err))
		}
	}
	if keep {
		sent.bufs = nil // checked
		p.sent, p.ans = sent, ans
	}
	return p, nil
}

// listTraces returns the last n traces the tracer finished, oldest first.
// With one closed-loop client every request finishes its trace before its
// reply is sent, so these are the traces of the list's n requests, in
// order; the per-layer metrics check each against its request's
// fingerprint where the trace records one.
func listTraces(t *obs.Tracer, n int) ([]*obs.TraceJSON, error) {
	recent := t.Traces().Recent // newest first
	if len(recent) < n {
		return nil, fmt.Errorf("tracer kept %d traces, want %d", len(recent), n)
	}
	out := make([]*obs.TraceJSON, n)
	for i := range out {
		out[i] = recent[n-1-i]
	}
	return out, nil
}
