package cluster

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestRacingFieldsAreNoOps: the V1 racing options "portfolio",
// "share_clauses" and "portfolio_strategies" are accepted on every path of
// both tiers and change nothing. Two identical fleets get the same request
// sequence, one with the racing fields and one without; every result must
// be byte-identical apart from the wall-clock stage timings, and none may
// carry a "portfolio" object.
func TestRacingFieldsAreNoOps(t *testing.T) {
	// No fooling bound, so instances above rank need the SAT stage — the
	// only stage racing ever touched. Each tier and variant gets a fresh
	// fleet, so both variants see the same cache history.
	opts := core.DefaultOptions()
	opts.FoolingBudget = 0
	opts.ConflictBudget = goldenConflictBudget
	scfg := server.Config{MaxQueue: 256, DefaultTimeout: -1, Options: &opts}
	matrices := []string{fig1b, "11000\n00110\n01100\n10011\n11111"}
	for _, m := range eval.GapSuiteMatrices()[:6] {
		matrices = append(matrices, m.String())
	}
	racing := &wire.SolveOptions{Portfolio: 3, ShareClauses: true, PortfolioStrategies: []string{"luby", "canonical"}}
	var plainReqs, racingReqs []wire.SolveRequest
	for _, m := range matrices {
		plainReqs = append(plainReqs, wire.SolveRequest{Matrix: m})
		racingReqs = append(racingReqs, wire.SolveRequest{Matrix: m, Options: racing})
	}
	satCalls := 0
	for _, tier := range []struct {
		name string
		url  func(*testCluster) string
	}{
		{"ebmfd", func(tc *testCluster) string { return tc.backends[0].URL }},
		{"ebmfgw", func(tc *testCluster) string { return tc.ts.URL }},
	} {
		want := wirePaths(t, tier.url(newJobCluster(t, 2, scfg, Config{})), plainReqs)
		got := wirePaths(t, tier.url(newJobCluster(t, 2, scfg, Config{})), racingReqs)
		for path, raws := range got {
			for i, raw := range raws {
				g, w := untimedResult(t, raw), untimedResult(t, want[path][i])
				if g != w {
					t.Fatalf("%s %s matrix %d: racing fields changed the result:\n got %s\nwant %s", tier.name, path, i, g, w)
				}
				satCalls += decodeResult(t, raw).SATCalls
			}
		}
	}
	if satCalls == 0 {
		t.Fatal("no request reached the SAT stage; the corpus no longer covers the path racing used")
	}
}

// untimedResult re-encodes a raw result without its wall-clock stage
// timings, failing if it carries the removed "portfolio" object.
func untimedResult(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("bad result JSON: %v\n%s", err, raw)
	}
	if _, ok := m["portfolio"]; ok {
		t.Fatalf("result carries a portfolio object: %s", raw)
	}
	delete(m, "pack_ns")
	delete(m, "sat_ns")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
