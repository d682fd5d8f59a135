// Package core implements SAP (SMT-and-packing, Algorithm 1 of the paper):
// the combined EBMF solver. The row-packing heuristic supplies a valid
// partition quickly; a SAT-backed exact solver (the paper uses z3; this
// reproduction compiles the same constraints to CNF) then repeatedly narrows
// the rectangle budget until it proves unsatisfiability or reaches the
// rational-rank lower bound, at which point the best partition found is
// optimal.
//
// Solving runs as a staged pipeline:
//
//	Preprocess (bitmat.Compress)   — drop zero rows/cols, merge duplicates
//	Decompose  (bitmat.Decompose)  — split into bipartite connected components
//	Per-block SAP (solveBlock)     — Algorithm 1 on each block, concurrently
//	Recombine                      — union the partitions, stitch certificates
//
// The depth objective is additive over components (a rectangle spanning two
// components would cover a 0), so the blockwise union of optima is a global
// optimum and blocks can be solved independently on a worker pool
// (Options.Parallelism). A context.Context threads cancellation through the
// pipeline into the SAT solver's search loop, so a canceled request stops
// mid-search instead of at the next depth bound.
//
// The solver always returns the best valid partition found so far, even when
// interrupted by a conflict budget, deadline or cancellation — mirroring the
// paper's "when we terminate at any time, we can return P".
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bitmat"
	"repro/internal/encode"
	"repro/internal/fooling"
	"repro/internal/obs"
	"repro/internal/rect"
	"repro/internal/rowpack"
	"repro/internal/sat"
)

// Encoding selects the CNF compilation of the depth-decision problem.
type Encoding int

const (
	// EncodingOneHot is the direct slot encoding (default, fastest).
	EncodingOneHot Encoding = iota
	// EncodingLog is the bit-vector-flavoured encoding (ablation).
	EncodingLog
)

// Certificate says why a result is known optimal.
type Certificate int

const (
	// CertNone: no optimality proof (heuristic result only).
	CertNone Certificate = iota
	// CertRank: depth equals the rational-rank lower bound (Eq. 3).
	CertRank
	// CertFooling: depth equals a fooling-set lower bound.
	CertFooling
	// CertUnsat: the SAT solver proved depth-1 infeasible.
	CertUnsat
)

// String names the certificate.
func (c Certificate) String() string {
	switch c {
	case CertRank:
		return "rank"
	case CertFooling:
		return "fooling-set"
	case CertUnsat:
		return "unsat-proof"
	default:
		return "none"
	}
}

// Options configures Solve.
type Options struct {
	// Packing configures the row-packing heuristic stage.
	Packing rowpack.Options
	// Encoding selects the CNF compilation.
	Encoding Encoding
	// AMO selects the at-most-one encoding for the one-hot compilation.
	AMO encode.AMO
	// SkipSAT stops after the heuristic stage (still reports lower bounds
	// and certificates when the heuristic happens to match them).
	SkipSAT bool
	// ConflictBudget bounds total SAT conflicts across the narrowing loop;
	// ≤ 0 means unlimited. When exhausted the best partition so far is
	// returned with TimedOut set. After decomposition the budget is
	// apportioned across blocks proportionally to their 1-entry counts.
	ConflictBudget int64
	// TimeBudget bounds wall-clock time of the solve; 0 means unlimited.
	// The deadline is anchored when the pipeline starts (after
	// preprocessing), so per-block packing and queueing time count against
	// it, and the SAT loops of all blocks share the single deadline.
	TimeBudget time.Duration
	// FoolingBudget is the node budget for the exact fooling-set lower
	// bound; 0 skips the fooling bound entirely (the paper's loop uses only
	// the rank bound; fooling strengthens certificates on small instances).
	// The budget applies per block, and the search runs only on blocks whose
	// packing depth is still above the rank bound: elsewhere it could change
	// neither the depth nor the certificate.
	FoolingBudget int64
	// DisableCompression solves on the raw matrix instead of the
	// deduplicated reduction.
	DisableCompression bool
	// DisableDecomposition skips the connected-component split and runs one
	// monolithic SAP loop over the whole (compressed) matrix — the
	// pre-pipeline behaviour, kept as an ablation and differential-test
	// baseline.
	DisableDecomposition bool
	// Parallelism bounds how many blocks are solved concurrently after
	// decomposition; ≤ 0 means runtime.GOMAXPROCS(0). Results are
	// deterministic regardless of the setting: blocks are independent and
	// recombined in a fixed order.
	Parallelism int
	// MaxSATEntries skips the SAT stage for matrices with more 1-entries
	// (mirrors the paper: 100×100 instances are "too large for SMT").
	// 0 means no limit. Applied per block, so a large matrix that
	// decomposes into small components still gets exact per-block solves.
	MaxSATEntries int
	// DisableIncremental narrows the depth bound by adding unit clauses
	// (re-constraining the formula) instead of the default selector
	// assumptions. Kept as an ablation: incremental narrowing reuses learnt
	// clauses and heuristic state across every depth bound of the SAP loop.
	DisableIncremental bool
	// DisableSymmetryBreaking drops the slot-ordering symmetry-breaking
	// clauses (lexicographic first-row-index ordering of rectangle slots)
	// from the one-hot encoding, leaving only the per-entry break
	// (ablation). Without them the solver re-explores permuted-slot
	// duplicates of every partition attempt on UNSAT proofs.
	DisableSymmetryBreaking bool
	// DisablePhaseSaving turns off the solver's saved-polarity decision
	// heuristic (ablation).
	DisablePhaseSaving bool
	// DisableInprocessing turns off the solver's between-restart clause
	// database simplification (vivification + binary self-subsumption);
	// kept as an ablation for the native-AMO/inprocessing PR.
	DisableInprocessing bool
	// LBDCap overrides the solver's glue-clause threshold: learnt clauses
	// with literal-blocks-distance at or below the cap are never evicted by
	// database reduction. 0 keeps the solver default (2).
	LBDCap int
}

// DefaultOptions mirror the paper's configuration at moderate effort:
// 100 packing trials and an unbounded exact stage for small matrices.
func DefaultOptions() Options {
	return Options{
		Packing:       rowpack.DefaultOptions(),
		FoolingBudget: 200_000,
		MaxSATEntries: 400,
	}
}

// Result is the outcome of a Solve call.
type Result struct {
	// Partition is the best EBMF found; always valid for the input matrix.
	Partition *rect.Partition
	// Depth is len(Partition.Rects) = the addressing depth.
	Depth int
	// RankLB is the rational-rank lower bound (Eq. 3; summed over blocks —
	// rank is additive over the connected-component decomposition).
	RankLB int
	// FoolingLB is the best fooling-set lower bound computed, summed over
	// the blocks where the search ran (blockwise fooling sets union into a
	// fooling set of the whole matrix). A block contributes 0 when the
	// bound was not computed: packing met the rank bound, so the search
	// could not change the depth or the certificate, or FoolingBudget is 0.
	// Any non-empty block has a fooling set of size ≥ 1, so 0 on a
	// non-empty matrix always means "not computed".
	FoolingLB int
	// Optimal reports whether Depth is proved minimal, i.e. Depth = r_B(M).
	// After decomposition this holds iff every block was solved optimally.
	Optimal bool
	// Certificate says how optimality was established: the strongest
	// machinery any block needed (unsat-proof > fooling-set > rank).
	Certificate Certificate
	// TimedOut reports that a conflict budget, deadline or cancellation
	// interrupted the narrowing loop on some block (the result may still be
	// optimal-by-bound).
	TimedOut bool
	// Canceled reports that the context was canceled mid-solve. The
	// partition is still valid; the SAT stage of unfinished blocks was
	// abandoned. Canceled results follow the same stage-timing contract as
	// complete ones: PackTime covers the heuristic stage (which always
	// runs), SATTime covers only SAT work actually performed (zero when the
	// cancellation landed before the SAT stage started).
	Canceled bool
	// CacheHit reports that the result was served from a fingerprint cache
	// (see internal/solvecache) rather than a pipeline run. On cache hits
	// the solver-stage fields — SATCalls, Conflicts, PackTime, SATTime —
	// are zeroed rather than replaying the original solve's values: they
	// describe work this request did, which was none.
	CacheHit bool
	// Blocks is the number of connected components the solve decomposed
	// into (1 when decomposition is disabled or the matrix is connected).
	Blocks int
	// HeuristicDepth is the depth after the packing stage, before SAT
	// (summed over blocks).
	HeuristicDepth int
	// SATCalls counts decision-problem invocations across all blocks.
	SATCalls int
	// Conflicts is the total SAT conflicts spent across all blocks.
	Conflicts int64
	// PackTime and SATTime split the runtime by stage (Figure 4's split),
	// summed over blocks — with Parallelism > 1 these are aggregate
	// per-block times and may exceed the wall clock.
	PackTime, SATTime time.Duration
}

// markOptimalByBound records optimality established by the depth meeting a
// lower bound, with the certificate naming the stronger bound.
func (r *Result) markOptimalByBound() {
	r.Optimal = true
	r.Certificate = CertRank
	if r.FoolingLB > r.RankLB {
		r.Certificate = CertFooling
	}
}

// ErrNilMatrix is returned when Solve receives a nil matrix.
var ErrNilMatrix = errors.New("core: nil matrix")

// Solve runs the staged SAP pipeline on m and returns the best partition
// with provenance. It is SolveContext with a background context.
func Solve(m *bitmat.Matrix, opts Options) (*Result, error) {
	return SolveContext(context.Background(), m, opts)
}

// SolveContext is Solve with cancellation: when ctx is canceled the SAT
// stage stops mid-search (the cancellation is polled inside the solver's
// propagate loop) and the best partition found so far is returned with
// Canceled and TimedOut set. The heuristic stage always completes, so the
// returned partition is valid even for an already-canceled context.
func SolveContext(ctx context.Context, m *bitmat.Matrix, opts Options) (*Result, error) {
	if m == nil {
		return nil, ErrNilMatrix
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Stage 1: Preprocess — work on the compressed matrix; lift the
	// partition back at the end.
	work := m
	var comp *bitmat.Compression
	if !opts.DisableCompression {
		_, sp := obs.StartSpan(ctx, "preprocess")
		comp = bitmat.Compress(m)
		work = comp.Reduced
		sp.SetAttrInt("rows", int64(work.Rows()))
		sp.SetAttrInt("cols", int64(work.Cols()))
		sp.End()
	}

	finish := func(res *Result, p *rect.Partition) (*Result, error) {
		if comp != nil {
			p = rect.Lift(comp, m, p)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("core: internal error: produced invalid partition: %w", err)
		}
		res.Partition = p
		res.Depth = p.Depth()
		return res, nil
	}

	if work.Ones() == 0 {
		res := &Result{Optimal: true, Certificate: CertRank}
		return finish(res, rect.NewPartition(work))
	}

	// Stage 2: Decompose — split into bipartite connected components.
	var blocks []bitmat.Block
	if opts.DisableDecomposition {
		blocks = []bitmat.Block{wholeBlock(work)}
	} else {
		_, sp := obs.StartSpan(ctx, "decompose")
		blocks = bitmat.Decompose(work).Blocks
		sp.SetAttrInt("blocks", int64(len(blocks)))
		sp.End()
	}

	deadline := time.Time{}
	if opts.TimeBudget > 0 {
		deadline = time.Now().Add(opts.TimeBudget)
	}
	budgets := apportionConflicts(opts.ConflictBudget, blocks)

	// Stage 3: per-block SAP on a bounded worker pool.
	results := make([]*Result, len(blocks))
	errs := make([]error, len(blocks))
	if par := parallelism(opts, len(blocks)); par <= 1 {
		for i := range blocks {
			results[i], errs[i] = solveBlock(ctx, i, blocks[i].M, opts, budgets[i], deadline)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i], errs[i] = solveBlock(ctx, i, blocks[i].M, opts, budgets[i], deadline)
				}
			}()
		}
		for i := range blocks {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Stage 4: Recombine — union the block partitions on the work matrix
	// and stitch the per-block provenance together.
	_, rsp := obs.StartSpan(ctx, "recombine")
	defer rsp.End()
	res := &Result{Blocks: len(blocks), Optimal: true, Certificate: CertRank}
	union := rect.NewPartition(work)
	for bi, br := range results {
		blk := blocks[bi]
		for _, r := range br.Partition.Rects {
			nr := rect.NewRect(work.Rows(), work.Cols())
			r.Rows.ForEachOne(func(i int) { nr.Rows.Set(blk.Rows[i], true) })
			r.Cols.ForEachOne(func(j int) { nr.Cols.Set(blk.Cols[j], true) })
			union.Add(nr)
		}
		res.RankLB += br.RankLB
		res.FoolingLB += br.FoolingLB
		res.HeuristicDepth += br.HeuristicDepth
		res.SATCalls += br.SATCalls
		res.Conflicts += br.Conflicts
		res.PackTime += br.PackTime
		res.SATTime += br.SATTime
		res.TimedOut = res.TimedOut || br.TimedOut
		res.Canceled = res.Canceled || br.Canceled
		res.Optimal = res.Optimal && br.Optimal
		if br.Certificate > res.Certificate {
			res.Certificate = br.Certificate
		}
	}
	if !res.Optimal {
		res.Certificate = CertNone
	}
	return finish(res, union)
}

// wholeBlock wraps a matrix as a single block with identity lift maps.
func wholeBlock(m *bitmat.Matrix) bitmat.Block {
	rows := make([]int, m.Rows())
	for i := range rows {
		rows[i] = i
	}
	cols := make([]int, m.Cols())
	for j := range cols {
		cols[j] = j
	}
	return bitmat.Block{M: m, Rows: rows, Cols: cols}
}

// parallelism resolves the worker-pool width for nBlocks blocks.
func parallelism(opts Options, nBlocks int) int {
	p := opts.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > nBlocks {
		p = nBlocks
	}
	if p < 1 {
		p = 1
	}
	return p
}

// apportionConflicts splits a global conflict budget across blocks
// proportionally to their 1-entry counts (the driver of CNF size and search
// hardness), guaranteeing each block at least one conflict; any rounding
// remainder goes to the largest block. total ≤ 0 means unlimited for every
// block (zero shares).
func apportionConflicts(total int64, blocks []bitmat.Block) []int64 {
	out := make([]int64, len(blocks))
	if total <= 0 || len(blocks) <= 1 {
		if total > 0 && len(blocks) == 1 {
			out[0] = total
		}
		return out
	}
	ones := make([]int64, len(blocks))
	var sum int64
	maxI := 0
	for i, b := range blocks {
		ones[i] = int64(b.M.Ones())
		sum += ones[i]
		if ones[i] > ones[maxI] {
			maxI = i
		}
	}
	var used int64
	for i := range out {
		out[i] = total * ones[i] / sum
		if out[i] < 1 {
			out[i] = 1
		}
		used += out[i]
	}
	if rem := total - used; rem > 0 {
		out[maxI] += rem
	}
	return out
}

// solveBlock runs Algorithm 1 — heuristic pack, lower bounds, SAT narrowing —
// on one connected block. The returned Result carries a block-local partition
// (not yet lifted or validated) plus the block's provenance fields.
func solveBlock(ctx context.Context, blockIdx int, m *bitmat.Matrix, opts Options, conflictBudget int64, deadline time.Time) (*Result, error) {
	res := &Result{Blocks: 1}
	if m.Ones() == 0 {
		res.Optimal = true
		res.Certificate = CertRank
		res.Partition = rect.NewPartition(m)
		return res, nil
	}
	ctx, bsp := obs.StartSpan(ctx, "block")
	bsp.SetAttrInt("block", int64(blockIdx))
	bsp.SetAttrInt("ones", int64(m.Ones()))
	defer bsp.End()
	defer func() {
		if res.Partition != nil {
			bsp.SetAttrInt("depth", int64(res.Partition.Depth()))
		}
		bsp.SetAttrInt("conflicts", res.Conflicts)
		bsp.SetAttrInt("rank_lb", int64(res.RankLB))
		bsp.SetAttrInt("fooling_lb", int64(res.FoolingLB))
	}()

	// Bound-first: the rational rank (Eq. 3) comes before packing, so the
	// packer can stop at the first trial that meets it and the fooling
	// search runs only while packing is still above it.
	res.RankLB = m.Rank()
	lb := res.RankLB

	// Stage 1: heuristic upper bound (Algorithm 1, line 1).
	t0 := time.Now()
	_, psp := obs.StartSpan(ctx, "pack")
	best, trials := rowpack.PackTo(m, opts.Packing, lb)
	psp.SetAttrInt("depth", int64(best.Depth()))
	psp.SetAttrInt("trials", int64(trials))
	psp.End()
	res.PackTime = time.Since(t0)
	res.HeuristicDepth = best.Depth()

	// Fooling-set bound, only where it can still matter: once packing meets
	// rank, r_B = RankLB, so FoolingLB ≤ RankLB could neither raise the bound
	// nor change the certificate (markOptimalByBound picks rank on ties).
	if opts.FoolingBudget > 0 && best.Depth() > lb {
		fs, _ := fooling.Exact(m, opts.FoolingBudget)
		res.FoolingLB = len(fs)
		if res.FoolingLB > lb {
			lb = res.FoolingLB
		}
	} else {
		bsp.SetAttr("fooling", "skipped")
	}

	res.Partition = best
	if best.Depth() <= lb {
		res.markOptimalByBound()
		return res, nil
	}
	if opts.SkipSAT || (opts.MaxSATEntries > 0 && m.Ones() > opts.MaxSATEntries) {
		return res, nil
	}
	if ctx.Err() != nil {
		res.TimedOut, res.Canceled = true, true
		return res, nil
	}
	if deadlineExpired(deadline) {
		// A block queued behind slow siblings must not start a conflict
		// chunk against an already-spent budget.
		res.TimedOut = true
		return res, nil
	}

	// Stage 2: SAT narrowing loop (Algorithm 1, lines 2–10).
	tSAT := time.Now()
	defer func() { res.SATTime = time.Since(tSAT) }()

	enc := newEncoder(m, best.Depth()-1, opts)
	s := enc.Solver()
	s.SetInterrupt(func() bool { return ctx.Err() != nil })
	defer s.SetInterrupt(nil)
	installProgress(ctx, s, blockIdx, lb, enc.Bound)
	defer s.SetProgress(0, nil)
	remaining := conflictBudget // <=0: unlimited
	for enc.Bound() >= lb {
		if conflictBudget > 0 && remaining <= 0 {
			// The budget ran out exactly on the last round's final conflict:
			// passing remaining=0 on would mean "unlimited" to
			// solveWithBudgets, not "exhausted".
			res.TimedOut = true
			break
		}
		_, probe := obs.StartSpan(ctx, "probe")
		probe.SetAttrInt("bound", int64(enc.Bound()))
		status, spent := solveWithBudgets(ctx, enc, remaining, deadline)
		probe.SetAttr("status", status.String())
		probe.SetAttrInt("conflicts", spent)
		probe.End()
		res.SATCalls++
		res.Conflicts += spent
		if remaining > 0 {
			remaining -= spent
			if remaining <= 0 && status == sat.Unknown {
				res.TimedOut = true
				break
			}
		}
		switch status {
		case sat.Sat:
			p, err := enc.ReadPartition()
			if err != nil {
				return nil, fmt.Errorf("core: model readout failed: %w", err)
			}
			best = p
			res.Partition = best
			enc.Narrow()
		case sat.Unsat:
			res.Optimal = true
			res.Certificate = CertUnsat
			return res, nil
		default:
			res.TimedOut = true
			res.Canceled = ctx.Err() != nil
			return res, nil
		}
	}
	if !res.TimedOut && best.Depth() <= lb {
		res.markOptimalByBound()
	}
	return res, nil
}

// newEncoder builds the configured encoder at bound b. The default is the
// incremental (selector-assumption) variant, encoded once at the heuristic
// upper bound and narrowed via assumptions; the solver knobs from opts are
// applied to the fresh solver.
func newEncoder(m *bitmat.Matrix, b int, opts Options) encode.Encoder {
	var enc encode.Encoder
	switch {
	case opts.Encoding == EncodingLog && opts.DisableIncremental:
		enc = encode.NewLog(m, b)
	case opts.Encoding == EncodingLog:
		enc = encode.NewLogIncremental(m, b)
	default:
		enc = encode.NewOneHotConfig(m, b, encode.OneHotConfig{
			AMO:                 opts.AMO,
			Incremental:         !opts.DisableIncremental,
			DisableSlotOrdering: opts.DisableSymmetryBreaking,
		})
	}
	s := enc.Solver()
	s.PhaseSaving = !opts.DisablePhaseSaving
	s.Inprocess = !opts.DisableInprocessing
	if opts.LBDCap > 0 {
		s.LBDCap = opts.LBDCap
	}
	return enc
}

// installProgress wires the solver's sampled search telemetry into the
// context's trace: an initial sample marks the SAT stage start (so every
// traced solve that reaches SAT has at least one sample even when it decides
// in fewer conflicts than the sampling interval), then one sample per
// ProgressEvery conflicts. No-op on untraced contexts. The hook runs on the
// solver's search goroutine, which is the caller's — bound() must be safe to
// call from there.
func installProgress(ctx context.Context, s *sat.Solver, blockIdx, lb int, bound func() int) {
	every := obs.ProgressEvery(ctx)
	if every <= 0 {
		return
	}
	obs.AddProgress(ctx, obs.ProgressSample{Time: time.Now(), Block: blockIdx, Bound: bound(), LB: lb})
	s.SetProgress(every, func(p sat.Progress) {
		obs.AddProgress(ctx, obs.ProgressSample{
			Time:         time.Now(),
			Block:        blockIdx,
			Bound:        bound(),
			LB:           lb,
			Conflicts:    p.Conflicts,
			Restarts:     p.Restarts,
			Propagations: p.Propagations,
			Learnts:      p.Learnts,
		})
	})
}

// solveWithBudgets runs the encoder's solver in conflict chunks so that the
// global conflict budget, the wall-clock deadline and context cancellation
// are all honoured. It returns the final status and the number of conflicts
// spent.
func solveWithBudgets(ctx context.Context, enc encode.Encoder, remaining int64, deadline time.Time) (sat.Status, int64) {
	s := enc.Solver()
	const chunk = int64(20_000)
	var spent int64
	for {
		budget := chunk
		if remaining > 0 && remaining-spent < budget {
			budget = remaining - spent
			if budget <= 0 {
				return sat.Unknown, spent
			}
		}
		if deadlineExpired(deadline) {
			return sat.Unknown, spent
		}
		s.SetConflictBudget(budget)
		before := s.Conflicts
		status := enc.Solve()
		spent += s.Conflicts - before
		if status != sat.Unknown {
			s.SetConflictBudget(-1)
			return status, spent
		}
		if ctx.Err() != nil {
			return sat.Unknown, spent
		}
		if remaining > 0 && spent >= remaining {
			return sat.Unknown, spent
		}
	}
}

// deadlineExpired reports whether a nonzero deadline has passed.
func deadlineExpired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// BinaryRank computes r_B(m) exactly (no budgets). For matrices beyond the
// SAT stage's reach this may take exponential time; prefer Solve with
// budgets for untrusted inputs.
func BinaryRank(m *bitmat.Matrix) (int, error) {
	opts := DefaultOptions()
	opts.ConflictBudget = 0
	opts.TimeBudget = 0
	opts.MaxSATEntries = 0
	res, err := Solve(m, opts)
	if err != nil {
		return 0, err
	}
	if !res.Optimal {
		return res.Depth, fmt.Errorf("core: optimality not established for %d×%d matrix", m.Rows(), m.Cols())
	}
	return res.Depth, nil
}
