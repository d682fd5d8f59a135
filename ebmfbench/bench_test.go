package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/wire"
)

// spec is the part of ../BENCHMARK.json the smoke test checks against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsEmitEveryMetric runs each workload at tiny size, untraced
// and traced, and checks that every metric BENCHMARK.json names comes out
// with its unit and that every answer passed the checker.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			c := config{workload: name, seed: 7, size: tiny, minPass: 1, trace: traced, tmp: t.TempDir()}
			want := sp.EndToEnd
			if traced {
				c.spans = t.TempDir() + "/spans.json"
				want = sp.PerLayer
			}
			res, err := run(c, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if traced {
				if _, err := os.Stat(c.spans); err != nil {
					t.Errorf("%s: spans not written: %v", name, err)
				}
			}
		}
	}
}

// TestCheckerRejectsCorruptAnswers feeds the checker a correct answer and
// corrupted copies of it: each corruption must be caught.
func TestCheckerRejectsCorruptAnswers(t *testing.T) {
	m := bitmat.MustParse("1100\n1100\n0011\n0111")
	w := &workload{}
	w.add(&w.list, m, kindHit, 0, 3)
	req := &w.list[0]
	res, err := core.Solve(m, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	good := wire.FromResult(res, "")
	if good.Depth != 3 || !good.Optimal {
		t.Fatalf("solver answered depth %d optimal=%v, want 3 true", good.Depth, good.Optimal)
	}
	classDepth := []int{3}
	if _, err := check(w, req, http.StatusOK, marshal(t, good), classDepth); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}

	corrupt := map[string]func(r *wire.ResultJSON){
		"dropped rectangle": func(r *wire.ResultJSON) { r.Partition = r.Partition[1:]; r.Depth-- },
		"covers a zero":     func(r *wire.ResultJSON) { r.Partition[0].Cols = []int{0, 1, 2, 3} },
		"overlap":           func(r *wire.ResultJSON) { r.Partition = append(r.Partition, r.Partition[0]); r.Depth++ },
		"out of range":      func(r *wire.ResultJSON) { r.Partition[0].Rows = append(r.Partition[0].Rows, 9) },
		"depth mismatch":    func(r *wire.ResultJSON) { r.Depth++ },
		"below rank":        func(r *wire.ResultJSON) { r.RankLB = r.Depth + 1 },
		"deadline":          func(r *wire.ResultJSON) { r.TimedOut = true },
	}
	for name, f := range corrupt {
		var bad wire.ResultJSON
		if err := json.Unmarshal(marshal(t, good), &bad); err != nil {
			t.Fatal(err)
		}
		f(&bad)
		if _, err := check(w, req, http.StatusOK, marshal(t, &bad), classDepth); err == nil {
			t.Errorf("%s: checker accepted the corrupted answer", name)
		} else if name == "deadline" && !errors.Is(err, errDeadline) {
			t.Errorf("deadline: got %v, want errDeadline", err)
		}
	}

	if _, err := check(w, req, http.StatusOK, marshal(t, good), []int{2}); err == nil {
		t.Error("a hit that disagrees with its class's cold depth was accepted")
	}
	wrongKnown := *req
	wrongKnown.known = 2
	if _, err := check(w, &wrongKnown, http.StatusOK, marshal(t, good), classDepth); err == nil {
		t.Error("an optimal answer that misses the planted optimum was accepted")
	}
	if _, err := check(w, req, http.StatusServiceUnavailable, []byte(`{}`), classDepth); err == nil {
		t.Error("a 503 was accepted")
	}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCoveredCountsOverlapOnce checks the self-time arithmetic: children
// that overlap (blocks solved in parallel) or stick out of their parent are
// counted once and only inside it.
func TestCoveredCountsOverlapOnce(t *testing.T) {
	for _, c := range []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{10, 20}, {30, 40}}, 20},
		{[][2]int64{{10, 30}, {20, 40}}, 30},
		{[][2]int64{{20, 40}, {10, 15}, {12, 30}}, 30},
		{[][2]int64{{-5, 10}, {90, 120}}, 20},
	} {
		if got := covered(0, 100, c.ivs); got != c.want {
			t.Errorf("covered(0, 100, %v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}
