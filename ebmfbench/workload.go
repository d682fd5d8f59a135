package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/benchgen"
	"repro/internal/bitmat"
	"repro/internal/eval"
	"repro/internal/wire"
)

// kind says what a request is expected to cost the serving tier.
type kind int

const (
	kindCold kind = iota // a pattern no tier has seen: a full pipeline solve (and, in the fleet, a store write and a fill)
	kindHit              // a permuted resubmission of a warm working-set pattern
)

// request is one POST /v1/solve of a workload, with what the checker needs.
// It holds no pointers (the body lives in workload.bodies), so the
// benchmark's own inputs add nothing to the garbage collector's mark work
// in the process that also hosts the servers.
type request struct {
	off, end int // the body is workload.bodies[off:end]
	kind     kind
	class    int // working-set pattern index for hits, -1 otherwise
	known    int // planted optimum (the known-optimal family), -1 otherwise
}

// workload is one seeded traffic mix: warm requests run during set-up (for
// hit workloads they fill the caches and fix each class's depth), list is
// the measured pass, sent to completion.
type workload struct {
	name   string
	fleet  bool // ebmfgw in front of two ebmfd with durable stores
	warm   []request
	list   []request
	bodies []byte
}

func (w *workload) body(r *request) []byte { return w.bodies[r.off:r.end] }

// add appends a request for m to *reqs.
func (w *workload) add(reqs *[]request, m *bitmat.Matrix, k kind, class, known int) {
	body, err := json.Marshal(&wire.SolveRequest{Matrix: m.String()})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	off := len(w.bodies)
	w.bodies = append(w.bodies, body...)
	*reqs = append(*reqs, request{off: off, end: len(w.bodies), kind: k, class: class, known: known})
}

// matrix parses the matrix a request submits, as the servers do.
func matrix(body []byte) (*bitmat.Matrix, error) {
	var sr wire.SolveRequest
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, err
	}
	return sr.ParseMatrix()
}

// size scales a workload; full is the benchmark, the tests use tiny.
type size struct {
	paperSmall, paperGap int // Table I instances per random cell / opt rank, per gap count
	paperWarm            int
	hotSet, hotReqs      int
	fleetSet, fleetReqs  int
	fleetFresh           int // cold share of fleetReqs, in percent
}

var (
	full = size{paperSmall: 10, paperGap: 100, paperWarm: 100, hotSet: 256, hotReqs: 20000,
		fleetSet: 768, fleetReqs: 16000, fleetFresh: 4}
	tiny = size{paperSmall: 1, paperGap: 2, paperWarm: 4, hotSet: 8, hotReqs: 200,
		fleetSet: 24, fleetReqs: 300, fleetFresh: 10}
)

// paperSuiteSeed fixes which Table I instances cold-paper solves; the run
// seed permutes every instance and shuffles the order. The daemon solves
// the canonical form, which is permutation-invariant, so every run does the
// same solver work: drawing the suite from the run seed would swap which
// UNSAT proofs a run holds, and single proofs range from 0.2 s to 6.5 s
// across suite seeds. Suite seeds 1, 3, 5 and 7 each hold a 100×100
// instance at 2% occupancy whose canonical form runs into the daemon's 30 s
// deadline (the submitted order solves in under 0.1 s), which would end a
// request on a timer; seed 4 holds none, and its longest solve is 1.0 s.
const paperSuiteSeed = 4

var workloadNames = []string{"cold-paper", "hot-resubmit", "fleet-mixed"}

func buildWorkload(name string, seed int64, sz size) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "cold-paper":
		return coldPaper(rng, sz), nil
	case "hot-resubmit":
		return hotResubmit(rng, seed, sz), nil
	case "fleet-mixed":
		return fleetMixed(rng, seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// clients is the number of closed-loop callers. One, not nproc: with two
// callers and the servers sharing two vCPUs, every CPU is busy, so a
// thread the host preempts delays queued work by a scheduler tick; on a
// contended host that put hot-resubmit's p99 at 4.2 ms and fleet-mixed's at
// 8 ms instead of 2–3 ms, and made throughput swing by half. On cold-paper
// two callers would also make a pass's wall clock depend on which one draws
// the longest UNSAT proof last.
const clients = 1

// coldPaper is Table I at paper scale, de-duplicated by canonical
// fingerprint so every request is a real cache miss.
func coldPaper(rng *rand.Rand, sz size) *workload {
	w := &workload{name: "cold-paper"}
	seen := map[string]bool{}
	suites := eval.PaperSuites(paperSuiteSeed, sz.paperSmall, sz.paperGap)
	for _, name := range eval.SuiteOrder() {
		for _, ins := range suites[name] {
			if !distinct(seen, ins.M) {
				continue
			}
			w.add(&w.list, permute(rng, ins.M), kindCold, -1, knownOf(ins))
		}
	}
	rng.Shuffle(len(w.list), func(i, j int) { w.list[i], w.list[j] = w.list[j], w.list[i] })
	// Warm-up: known-optimal instances outside the measured list, so the
	// connection, allocator and solver code paths are warm without turning
	// a measured request into a hit.
	for _, ins := range optPatterns(paperSuiteSeed+100, sz.paperWarm, seen) {
		w.add(&w.warm, ins.M, kindCold, -1, ins.KnownOptimal)
	}
	return w
}

// hotResubmit sends seeded permutations of a proved working set that fits
// the 1024-entry cache, so every measured request is a hit. The set is the
// known-optimal 10×10 family: set-up then costs no UNSAT proofs, and every
// hit is also checked against a planted optimum.
func hotResubmit(rng *rand.Rand, seed int64, sz size) *workload {
	w := &workload{name: "hot-resubmit"}
	set := optPatterns(seed, sz.hotSet, nil)
	w.warmSet(set)
	for range sz.hotReqs {
		c := rng.Intn(len(set))
		w.add(&w.list, permute(rng, set[c].M), kindHit, c, set[c].KnownOptimal)
	}
	return w
}

// fleetMixed drives ebmfgw over two ebmfd: resubmissions from a working set
// 1.5 times the gateway's 512-entry LRU (two thirds answer from the
// gateway, so the median sits well inside that mode; a third are proxied
// backend hits) plus a fixed share of fresh instances, each a cold solve, a
// store write and a fill to the ring successor. The fresh share is several
// times 1%, so p99 sits inside the cold-solve mode.
func fleetMixed(rng *rand.Rand, seed int64, sz size) *workload {
	w := &workload{name: "fleet-mixed", fleet: true}
	seen := map[string]bool{}
	set := optPatterns(seed, sz.fleetSet, seen)
	fresh := optPatterns(seed+1, sz.fleetReqs*sz.fleetFresh/100, seen)
	w.warmSet(set)
	for _, ins := range fresh {
		w.add(&w.list, permute(rng, ins.M), kindCold, -1, ins.KnownOptimal)
	}
	for len(w.list) < sz.fleetReqs {
		c := rng.Intn(len(set))
		w.add(&w.list, permute(rng, set[c].M), kindHit, c, set[c].KnownOptimal)
	}
	rng.Shuffle(len(w.list), func(i, j int) { w.list[i], w.list[j] = w.list[j], w.list[i] })
	return w
}

// warmSet solves each working-set pattern once: a cold miss that fills the
// caches and fixes the class depth every later hit must repeat.
func (w *workload) warmSet(set []benchgen.Instance) {
	for c, ins := range set {
		w.add(&w.warm, ins.M, kindCold, c, ins.KnownOptimal)
	}
}

// optPatterns draws n fingerprint-distinct 10×10 known-optimal instances
// with ranks cycling through 4–10, so every seed's set has the same depth
// mix, skipping any already in seen. Lower ranks have too few canonical
// classes to fill a set: 1, 3 and 28 for ranks 1, 2 and 3.
func optPatterns(seed int64, n int, seen map[string]bool) []benchgen.Instance {
	if seen == nil {
		seen = map[string]bool{}
	}
	rng := rand.New(rand.NewSource(seed))
	var out []benchgen.Instance
	for len(out) < n {
		k := 4 + len(out)%7
		m, _ := benchgen.KnownOptimal(rng, 10, 10, k)
		if distinct(seen, m) {
			out = append(out, benchgen.Instance{M: m, Family: benchgen.FamilyOpt, KnownOptimal: k})
		}
	}
	return out
}

func distinct(seen map[string]bool, m *bitmat.Matrix) bool {
	h := bitmat.ComputeFingerprint(m).Hash
	if seen[h] {
		return false
	}
	seen[h] = true
	return true
}

func knownOf(ins benchgen.Instance) int {
	if ins.Family == benchgen.FamilyOpt {
		return ins.KnownOptimal
	}
	return -1
}

func permute(rng *rand.Rand, m *bitmat.Matrix) *bitmat.Matrix {
	return m.PermuteRows(rng.Perm(m.Rows())).PermuteCols(rng.Perm(m.Cols()))
}
