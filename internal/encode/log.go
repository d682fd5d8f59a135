package encode

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/rect"
	"repro/internal/sat"
)

// Log is the bit-vector-flavoured CNF compilation: each entry's rectangle
// index f(e) is a ⌈log₂ b⌉-bit word. It matches the paper's SMT formulation
// most literally and serves as the encoding ablation; the one-hot encoding
// usually solves faster.
type Log struct {
	m     *bitmat.Matrix
	idx   *entryIndex
	s     *sat.Solver
	b     int
	built int
	nbit  int
	bits  [][]sat.Var // bits[e][l], little-endian
	sel   []sat.Var   // incremental mode: selector per value; sel[v] false forbids value v
	inc   bool
}

var _ Encoder = (*Log)(nil)

// NewLog builds the log-encoded formula for r_B(m) ≤ b. Narrowing mutates
// the formula; use NewLogIncremental for the assumption-based variant.
func NewLog(m *bitmat.Matrix, b int) *Log {
	return newLog(m, b, false)
}

// NewLogIncremental builds the log formula plus one selector variable per
// rectangle value, with clauses sel[v] ∨ (f(e) ≠ v) per entry. Narrowing
// then disables values by assumption instead of adding clauses, so learnt
// clauses and heuristic state persist across depth bounds.
func NewLogIncremental(m *bitmat.Matrix, b int) *Log {
	return newLog(m, b, true)
}

func newLog(m *bitmat.Matrix, b int, incremental bool) *Log {
	e := &Log{m: m, idx: newEntryIndex(m), s: sat.New(), b: b, built: b, inc: incremental}
	n := len(e.idx.pos)
	if n == 0 {
		return e
	}
	if b < 1 {
		e.s.AddClause()
		return e
	}
	e.nbit = bitsFor(b)
	e.bits = make([][]sat.Var, n)
	for en := range e.bits {
		e.bits[en] = make([]sat.Var, e.nbit)
		for l := range e.bits[en] {
			e.bits[en][l] = e.s.NewVar()
		}
	}
	// Domain constraint: f(e) < b, plus symmetry breaking f(e_t) ≤ t.
	for en := 0; en < n; en++ {
		max := b - 1
		if en < max {
			max = en
		}
		e.forbidAbove(en, max)
	}
	// Closure constraints per unordered pair.
	for a := 0; a < n; a++ {
		for c := a + 1; c < n; c++ {
			kind, crossA, crossB := classifyPair(m, e.idx, a, c)
			switch kind {
			case pairSkip:
			case pairConflict:
				e.addDiffer(a, c)
			case pairClosure:
				neq := e.addNeqVar(a, c)
				// ¬neq (i.e. equal) forces each cross's bits to equal a's.
				e.addEqualUnless(neq, a, crossA)
				e.addEqualUnless(neq, a, crossB)
			}
		}
	}
	if incremental {
		e.sel = make([]sat.Var, b)
		for v := range e.sel {
			e.sel[v] = e.s.NewVar()
		}
		for en := 0; en < n; en++ {
			for v := 0; v < b; v++ {
				lits := e.neqLits(en, v)
				e.s.AddClause(append(lits, sat.PosLit(e.sel[v]))...)
			}
		}
	}
	return e
}

// bitsFor returns ⌈log₂ b⌉ (at least 1).
func bitsFor(b int) int {
	n := 1
	for (1 << uint(n)) < b {
		n++
	}
	return n
}

// forbidAbove adds clauses excluding every value v with max < v < 2^nbit for
// entry en.
func (e *Log) forbidAbove(en, max int) {
	for v := max + 1; v < (1 << uint(e.nbit)); v++ {
		lits := make([]sat.Lit, e.nbit)
		for l := 0; l < e.nbit; l++ {
			// Exclude the exact pattern of v: at least one bit must differ.
			if v&(1<<uint(l)) != 0 {
				lits[l] = sat.NegLit(e.bits[en][l])
			} else {
				lits[l] = sat.PosLit(e.bits[en][l])
			}
		}
		e.s.AddClause(lits...)
	}
}

// addDiffer enforces f(a) ≠ f(c) via per-bit difference variables.
func (e *Log) addDiffer(a, c int) {
	ds := make([]sat.Lit, e.nbit)
	for l := 0; l < e.nbit; l++ {
		d := e.s.NewVar()
		// d → (bits differ at l): d → (a_l ∨ c_l) and d → (¬a_l ∨ ¬c_l).
		e.s.AddClause(sat.NegLit(d), sat.PosLit(e.bits[a][l]), sat.PosLit(e.bits[c][l]))
		e.s.AddClause(sat.NegLit(d), sat.NegLit(e.bits[a][l]), sat.NegLit(e.bits[c][l]))
		ds[l] = sat.PosLit(d)
	}
	e.s.AddClause(ds...) // some bit differs
}

// addNeqVar introduces neq with neq → f(a) ≠ f(c) (one-directional: when
// neq is false the solver must treat the entries as equal and honour the
// closure implications attached by addEqualUnless).
func (e *Log) addNeqVar(a, c int) sat.Var {
	neq := e.s.NewVar()
	ds := make([]sat.Lit, 0, e.nbit+1)
	ds = append(ds, sat.NegLit(neq))
	for l := 0; l < e.nbit; l++ {
		d := e.s.NewVar()
		e.s.AddClause(sat.NegLit(d), sat.PosLit(e.bits[a][l]), sat.PosLit(e.bits[c][l]))
		e.s.AddClause(sat.NegLit(d), sat.NegLit(e.bits[a][l]), sat.NegLit(e.bits[c][l]))
		ds = append(ds, sat.PosLit(d))
	}
	e.s.AddClause(ds...)
	// The reverse direction: if the words differ at any bit, neq must hold,
	// else the closure implications would be vacuously strong but sound;
	// adding it keeps the encoding faithful: (a_l ≠ c_l) → neq.
	for l := 0; l < e.nbit; l++ {
		e.s.AddClause(sat.PosLit(neq), sat.PosLit(e.bits[a][l]), sat.NegLit(e.bits[c][l]))
		e.s.AddClause(sat.PosLit(neq), sat.NegLit(e.bits[a][l]), sat.PosLit(e.bits[c][l]))
	}
	return neq
}

// addEqualUnless enforces: ¬neq → (f(cross) = f(a)), bitwise.
func (e *Log) addEqualUnless(neq sat.Var, a, cross int) {
	for l := 0; l < e.nbit; l++ {
		e.s.AddClause(sat.PosLit(neq), sat.NegLit(e.bits[a][l]), sat.PosLit(e.bits[cross][l]))
		e.s.AddClause(sat.PosLit(neq), sat.PosLit(e.bits[a][l]), sat.NegLit(e.bits[cross][l]))
	}
}

// Bound returns the current rectangle budget.
func (e *Log) Bound() int { return e.b }

// Solver exposes the SAT solver.
func (e *Log) Solver() *sat.Solver { return e.s }

// Solve decides the current bound. In incremental mode values at or above
// the bound are forbidden by assuming their selectors false, leaving the
// formula and the solver's learnt clauses intact for the next bound.
func (e *Log) Solve() sat.Status {
	if len(e.idx.pos) == 0 {
		return sat.Sat
	}
	if !e.inc {
		return e.s.Solve()
	}
	assumptions := make([]sat.Lit, 0, e.built-e.b)
	for v := e.b; v < e.built; v++ {
		assumptions = append(assumptions, sat.NegLit(e.sel[v]))
	}
	return e.s.SolveAssuming(assumptions...)
}

// Narrow forbids value b-1 for every entry, reducing the bound by one. In
// incremental mode it only moves the bound; the next Solve disables the
// value by assumption.
func (e *Log) Narrow() {
	if e.b <= 0 {
		return
	}
	e.b--
	if e.inc || len(e.idx.pos) == 0 {
		return
	}
	if e.b == 0 {
		e.s.AddClause()
		return
	}
	for en := range e.bits {
		e.forbidExact(en, e.b)
	}
}

// neqLits returns the clause literals asserting f(en) ≠ v: at least one bit
// of entry en's word differs from v's pattern.
func (e *Log) neqLits(en, v int) []sat.Lit {
	lits := make([]sat.Lit, e.nbit, e.nbit+1)
	for l := 0; l < e.nbit; l++ {
		if v&(1<<uint(l)) != 0 {
			lits[l] = sat.NegLit(e.bits[en][l])
		} else {
			lits[l] = sat.PosLit(e.bits[en][l])
		}
	}
	return lits
}

// forbidExact excludes the single value v for entry en.
func (e *Log) forbidExact(en, v int) {
	e.s.AddClause(e.neqLits(en, v)...)
}

// ReadPartition decodes the last Sat model into a partition.
func (e *Log) ReadPartition() (*rect.Partition, error) {
	if len(e.idx.pos) == 0 {
		return rect.NewPartition(e.m), nil
	}
	slot := make([]int, len(e.idx.pos))
	for en := range e.bits {
		v := 0
		for l := 0; l < e.nbit; l++ {
			if e.s.Value(e.bits[en][l]) {
				v |= 1 << uint(l)
			}
		}
		slot[en] = v
	}
	maxSlot := 1 << uint(e.nbit)
	p, err := partitionFromAssignment(e.m, e.idx, slot, maxSlot)
	if err != nil {
		return nil, fmt.Errorf("log encoding: %w", err)
	}
	return p, nil
}
