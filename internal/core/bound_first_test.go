package core

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/obs"
)

// fig3Matrix is Figure 3 of the paper: rank 4 = r_B, and packing reaches 4.
const fig3Matrix = "11000\n00110\n01100\n10011\n11111"

func TestSolveRankTightSkipsFooling(t *testing.T) {
	m := bitmat.MustParse(fig3Matrix)
	res, err := Solve(m, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.HeuristicDepth != res.RankLB {
		t.Fatalf("precondition: heuristic depth %d != rank %d", res.HeuristicDepth, res.RankLB)
	}
	if res.FoolingLB != 0 {
		t.Fatalf("fooling LB = %d, want 0 (not computed: packing met the rank bound)", res.FoolingLB)
	}
	if !res.Optimal || res.Certificate != CertRank || res.SATCalls != 0 {
		t.Fatalf("optimal=%v cert=%v sat_calls=%d, want true/rank/0", res.Optimal, res.Certificate, res.SATCalls)
	}
}

// tracedBlock solves m under a trace and returns the attributes of its
// single block span and of that block's pack span.
func tracedBlock(t *testing.T, m *bitmat.Matrix, opts Options) (block, pack map[string]string) {
	t.Helper()
	ctx, root := obs.New(obs.Config{}).StartTrace(context.Background(), "solve", nil)
	if _, err := SolveContext(ctx, m, opts); err != nil {
		t.Fatal(err)
	}
	attrs := func(sd obs.SpanData) map[string]string {
		out := map[string]string{}
		for _, a := range sd.Attrs {
			out[a.Key] = a.Val
		}
		return out
	}
	for _, sd := range root.Finish().Spans {
		switch sd.Name {
		case "block":
			if block != nil {
				t.Fatal("want a single block span")
			}
			block = attrs(sd)
		case "pack":
			pack = attrs(sd)
		}
	}
	if block == nil || pack == nil {
		t.Fatal("missing block or pack span")
	}
	return block, pack
}

func TestBlockSpanExplainsBounds(t *testing.T) {
	opts := fastOptions()
	allTrials := strconv.Itoa(2 * opts.Packing.Trials) // both orientations

	// Rank-tight: the fooling search is skipped and packing stops early.
	block, pack := tracedBlock(t, bitmat.MustParse(fig3Matrix), opts)
	if block["rank_lb"] != "4" || block["fooling_lb"] != "0" || block["fooling"] != "skipped" {
		t.Fatalf("rank-tight block attrs = %v", block)
	}
	if n, err := strconv.Atoi(pack["trials"]); err != nil || n >= 2*opts.Packing.Trials {
		t.Fatalf("rank-tight pack trials = %q, want fewer than %s", pack["trials"], allTrials)
	}

	// Figure 1b: packing stays above rank 4, so the search runs and finds 5.
	block, pack = tracedBlock(t, bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111"), opts)
	if block["rank_lb"] != "4" || block["fooling_lb"] != "5" || block["fooling"] != "" {
		t.Fatalf("fig1b block attrs = %v", block)
	}
	if pack["trials"] != allTrials {
		t.Fatalf("fig1b pack trials = %q, want all %s", pack["trials"], allTrials)
	}
}
