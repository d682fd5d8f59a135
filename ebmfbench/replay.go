package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/fooling"
	"repro/internal/rect"
	"repro/internal/server"
	"repro/internal/solvecache"
	"repro/internal/store"
	"repro/internal/wire"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code. Times are nanoseconds from the start of the span's phase.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Req    int    `json:"req"`    // request index in the workload's list
}

// tracer keeps spans in memory. A nil tracer records nothing, which is the
// untraced replay the tracing overhead is measured against.
type tracer struct {
	epoch time.Time
	spans []span
}

func newSpanTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil && id >= 0 {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

func (t *tracer) do(name string, parent, req int, fn func()) {
	id := t.start(name, parent, req)
	fn()
	t.end(id)
}

// replayer re-enacts, in-process, the calls of each request's serving path
// into the layers the program records no span for (wire, bitmat
// fingerprint and rank, fooling, solvecache, store), wrapping each in a
// span. The solver stages the program does trace (compress, decompose,
// pack, SAT probes) are not replayed: their times come from the servers'
// own traces of the measured pass. A cold request is fingerprinted, its
// canonical form's blocks get their rank and fooling bounds as core
// computes them, and the prepared canonical result is lifted, stored
// (fleet) and encoded. A hit goes through a solvecache warmed with the
// same working set.
type replayer struct {
	t     *tracer
	w     *workload
	pre   *prepared
	cache *solvecache.Cache
	st    *store.Store // fleet only: the backends' durable tier

	bounds [][]blockBounds // per cold request, per block of its canonical form
	hashes []string        // per cold request, its fingerprint if exact
	hits   int             // resubmissions the cache answered without a solve
}

type blockBounds struct{ rank, fooling int }

// prepared is computed once, untimed, and shared by both replays: the
// canonical result of every pattern the warm-up or the list solves cold,
// from core.SolveContext with the daemons' options, keyed by fingerprint
// hash, and the hashes of the warm working set.
type prepared struct {
	opts  core.Options
	canon map[string]*core.Result
	warm  []string
}

func prepare(w *workload) (*prepared, error) {
	pre := &prepared{opts: core.DefaultOptions(), canon: map[string]*core.Result{}}
	pre.opts.ConflictBudget = server.DefaultConflictBudget
	solve := func(req *request) (string, error) {
		m, err := matrix(w.body(req))
		if err != nil {
			return "", err
		}
		fp := bitmat.ComputeFingerprint(m)
		if _, ok := pre.canon[fp.Hash]; ok {
			return fp.Hash, nil
		}
		target := m
		if fp.Exact {
			target = fp.Canonical
		}
		res, err := core.SolveContext(context.Background(), target, pre.opts)
		if err != nil {
			return "", err
		}
		pre.canon[fp.Hash] = res
		return fp.Hash, nil
	}
	for i := range w.warm {
		if req := &w.warm[i]; req.class >= 0 {
			h, err := solve(req)
			if err != nil {
				return nil, err
			}
			pre.warm = append(pre.warm, h)
		}
	}
	for i := range w.list {
		if req := &w.list[i]; req.kind == kindCold {
			if _, err := solve(req); err != nil {
				return nil, err
			}
		}
	}
	return pre, nil
}

func newReplayer(w *workload, pre *prepared, dir string, t *tracer) (*replayer, error) {
	r := &replayer{t: t, w: w, pre: pre, cache: solvecache.New(1024), bounds: make([][]blockBounds, len(w.list)), hashes: make([]string, len(w.list))}
	if w.fleet {
		st, err := store.Open(dir, store.Options{Sync: store.SyncInterval, Logger: quiet})
		if err != nil {
			return nil, fmt.Errorf("replay store: %w", err)
		}
		r.st = st
	}
	// Warm the working set, untimed, as the workload's set-up warms the
	// servers.
	for _, h := range pre.warm {
		res := pre.canon[h]
		r.cache.Seed(h, res)
		if r.st != nil {
			if err := r.st.Put(record(h, res)); err != nil {
				r.close()
				return nil, err
			}
		}
	}
	return r, nil
}

func (r *replayer) close() error {
	if r.st != nil {
		return r.st.Close()
	}
	return nil
}

// run replays the whole measured list once and returns each request's
// depth as the replay found it (-1 where it is not proved optimal) and the
// wall time of the loop.
func (r *replayer) run() ([]int, time.Duration, error) {
	depths := make([]int, len(r.w.list))
	t0 := time.Now()
	for i := range r.w.list {
		req := &r.w.list[i]
		root := r.t.start("replay", -1, i)
		m, err := r.decode(req, root, i)
		var res *core.Result
		var fp *bitmat.Fingerprint
		if err == nil && req.kind == kindHit {
			res, fp, err = r.hit(m, root, i)
		} else if err == nil {
			res, err = r.cold(m, root, i)
		}
		r.t.end(root)
		if err == nil && req.kind == kindHit {
			err = r.probe(m, fp, i)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("replay request %d: %w", i, err)
		}
		depths[i] = -1
		if res.Optimal {
			depths[i] = res.Depth
		}
	}
	return depths, time.Since(t0), nil
}

func (r *replayer) decode(req *request, root, i int) (*bitmat.Matrix, error) {
	var m *bitmat.Matrix
	var err error
	r.t.do("wire.decode", root, i, func() {
		var sr wire.SolveRequest
		dec := json.NewDecoder(bytes.NewReader(r.w.body(req)))
		dec.DisallowUnknownFields()
		if err = dec.Decode(&sr); err == nil {
			m, err = sr.ParseMatrix()
		}
	})
	return m, err
}

func (r *replayer) encode(res *core.Result, hash string, root, i int) error {
	var err error
	r.t.do("wire.encode", root, i, func() { _, err = json.Marshal(wire.FromResult(res, hash)) })
	return err
}

func (r *replayer) fingerprint(m *bitmat.Matrix, root, i int) *bitmat.Fingerprint {
	var fp *bitmat.Fingerprint
	r.t.do("bitmat.fingerprint", root, i, func() { fp = bitmat.ComputeFingerprint(m) })
	return fp
}

func (r *replayer) lift(fp *bitmat.Fingerprint, m *bitmat.Matrix, rects []solvecache.RectIndices, root, i int) (*rect.Partition, error) {
	var p *rect.Partition
	var err error
	r.t.do("solvecache.lift", root, i, func() { p, err = solvecache.LiftCanonical(fp, m, rects) })
	return p, err
}

// cold is a cache miss: fingerprint, then, where the daemon runs the
// pipeline on the canonical matrix, each block's rank and fooling bound as
// core computes them after packing; then the lift of the prepared result
// back onto the request, the store write (fleet) and the encode.
func (r *replayer) cold(m *bitmat.Matrix, root, i int) (*core.Result, error) {
	fp := r.fingerprint(m, root, i)
	if fp.Exact {
		r.hashes[i] = fp.Hash // the daemon reports no fingerprint for an inexact one
	}
	c, ok := r.pre.canon[fp.Hash]
	if !ok {
		return nil, fmt.Errorf("no prepared result for %s", fp.Hash)
	}
	target := m
	if fp.Exact {
		target = fp.Canonical
	}
	if work := bitmat.Compress(target).Reduced; work.Ones() > 0 {
		for _, blk := range bitmat.Decompose(work).Blocks {
			var b blockBounds
			r.t.do("bitmat.rank", root, i, func() { b.rank = blk.M.Rank() })
			if r.pre.opts.FoolingBudget > 0 {
				r.t.do("fooling.exact", root, i, func() {
					fs, _ := fooling.Exact(blk.M, r.pre.opts.FoolingBudget)
					b.fooling = len(fs)
				})
			}
			r.bounds[i] = append(r.bounds[i], b)
		}
	}
	res := *c
	if fp.Exact {
		var err error
		if res.Partition, err = r.lift(fp, m, indices(c.Partition), root, i); err != nil {
			return nil, err
		}
		if r.st != nil && c.Optimal {
			r.t.do("store.put", root, i, func() { err = r.st.Put(record(fp.Hash, c)) })
			if err != nil {
				return nil, err
			}
		}
	}
	return &res, r.encode(&res, fp.Hash, root, i)
}

// hit is a resubmission. On one ebmfd the cache fingerprints, looks up and
// lifts; behind the gateway the gateway fingerprints and lifts, and the
// backend's cache answers the canonical matrix.
func (r *replayer) hit(m *bitmat.Matrix, root, i int) (*core.Result, *bitmat.Fingerprint, error) {
	target := m
	var fp *bitmat.Fingerprint
	if r.w.fleet {
		if fp = r.fingerprint(m, root, i); fp.Exact {
			target = fp.Canonical
		}
	}
	var res *core.Result
	var hash string
	var err error
	r.t.do("solvecache.hit", root, i, func() {
		res, hash, err = r.cache.SolveContextKeyed(context.Background(), target, r.pre.opts)
	})
	if err != nil {
		return nil, nil, err
	}
	if res.CacheHit {
		r.hits++
	}
	if fp != nil && fp.Exact {
		if res.Partition, err = r.lift(fp, m, indices(res.Partition), root, i); err != nil {
			return nil, nil, err
		}
	}
	return res, fp, r.encode(res, hash, root, i)
}

// probe times, off the request path, the layer calls a hit makes inside
// code the replay cannot split: one ebmfd's cache hit fingerprints and
// lifts internally (fp is nil: the replay has not fingerprinted); a
// backend reads its store on an LRU miss (fp is the gateway's).
func (r *replayer) probe(m *bitmat.Matrix, fp *bitmat.Fingerprint, i int) error {
	root := r.t.start("probe", -1, i)
	defer r.t.end(root)
	if fp != nil {
		r.t.do("store.get", root, i, func() { r.st.Get(fp.Hash) })
		return nil
	}
	fp = r.fingerprint(m, root, i)
	_, err := r.lift(fp, m, indices(r.pre.canon[fp.Hash].Partition), root, i)
	return err
}

func indices(p *rect.Partition) []solvecache.RectIndices {
	out := make([]solvecache.RectIndices, len(p.Rects))
	for k, r := range p.Rects {
		out[k] = solvecache.RectIndices{Rows: r.RowIndices(), Cols: r.ColIndices()}
	}
	return out
}

// record is the store's form of a proved canonical result.
func record(hash string, res *core.Result) *store.Record {
	p := res.Partition
	rec := &store.Record{Hash: hash, Rows: p.M.Rows(), Cols: p.M.Cols(), Depth: res.Depth}
	for _, r := range res.Partition.Rects {
		rec.Rects = append(rec.Rects, store.RectRecord{Rows: r.RowIndices(), Cols: r.ColIndices()})
	}
	return rec
}
