package fooling

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bitmat"
)

// exactDigestInstances are the benchgen families (random, known-optimal,
// gap) plus Figure 1b, at sizes where some searches finish and some run
// out of the node budget.
func exactDigestInstances() []benchgen.Instance {
	var out []benchgen.Instance
	out = append(out, benchgen.RandomSuite(3, 10, 10, []float64{0.3, 0.5, 0.7}, 4)...)
	out = append(out, benchgen.OptSuite(5, 10, 10, 8, 2)...)
	out = append(out, benchgen.GapSuite(7, 10, 10, []int{2, 3, 4}, 4)...)
	out = append(out, benchgen.Instance{
		Name: "fig1b",
		M:    bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111"),
	})
	return out
}

// exactDigestWant is the digest of Exact's (set, ok) over
// exactDigestInstances, recorded when Exact still built the compatibility
// graph a second time for its greedy seed. Sharing one graph must not
// change a single entry or verdict.
const exactDigestWant = "de2af7b13800c72ff41d861b39a5b095ffc0bf2086fff4f7c9b53b7e5a79daac"

func TestExactUnchangedBySharedGraph(t *testing.T) {
	h := sha256.New()
	var finished, exhausted int
	for _, ins := range exactDigestInstances() {
		set, ok := Exact(ins.M, 2_000)
		if ok {
			finished++
		} else {
			exhausted++
		}
		fmt.Fprintf(h, "%s ok=%v %v\n", ins.Name, ok, set)
	}
	if finished == 0 || exhausted == 0 {
		t.Fatalf("instances cover finished=%d exhausted=%d searches; want both", finished, exhausted)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != exactDigestWant {
		t.Fatalf("Exact digest = %s, want %s", got, exactDigestWant)
	}
}
