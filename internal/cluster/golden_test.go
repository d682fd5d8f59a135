package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/server"
	"repro/internal/wire"
)

// goldenDigest is the SHA-256 of the golden corpus records (goldenRecord,
// one line per instance in corpus order, per tier). It pins the wire-level
// answer of the whole serving stack: a change that alters any depth,
// partition, certificate or bound of any corpus instance on any path
// changes it.
const goldenDigest = "9f4a7b3e4fdc6c70bb7348b7b0713a03c479eb0429d892e41c1b4b70a275f2d0"

// goldenConflictBudget bounds every corpus solve by conflicts instead of
// wall-clock time, so each record is a pure function of the matrix. Some
// corpus instances (e.g. rand-10x10-occ70-01) stay unproven far beyond any
// test deadline.
const goldenConflictBudget = 5_000

// goldenInstance is one named corpus matrix.
type goldenInstance struct {
	name   string
	matrix string
}

// goldenCorpus is the fixed wire-level corpus: the paper's Fig. 1b and
// Fig. 3 examples, a small draw of the Table I suites, and small members
// of every benchgen family.
func goldenCorpus() []goldenInstance {
	out := []goldenInstance{
		{"fig1b", fig1b},
		{"fig3", "11000\n00110\n01100\n10011\n11111"},
	}
	add := func(prefix string, ins []benchgen.Instance) {
		for _, in := range ins {
			out = append(out, goldenInstance{prefix + "/" + in.Name, in.M.String()})
		}
	}
	suites := eval.PaperSuites(4, 2, 5)
	for _, name := range eval.SuiteOrder() {
		add(name, suites[name])
	}
	add("small", benchgen.RandomSuite(31, 6, 8, []float64{0.3, 0.6}, 3))
	add("small", benchgen.OptSuite(32, 7, 7, 4, 2))
	add("small", benchgen.GapSuite(33, 8, 8, []int{2, 3}, 2))
	add("small", benchgen.BlockDiagSuite(34, 3, 6, 6, 2, 2, true))
	return out
}

// goldenRecord renders the deterministic fields of one raw result.
func goldenRecord(t *testing.T, name string, raw json.RawMessage) string {
	t.Helper()
	r := decodeResult(t, raw)
	part, err := json.Marshal(r.Partition)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s depth=%d optimal=%t cert=%s rank_lb=%d fooling_lb=%d heuristic=%d partition=%s",
		name, r.Depth, r.Optimal, r.Certificate, r.RankLB, r.FoolingLB, r.HeuristicDepth, part)
}

// wirePaths sends each request through /v1/solve, /v1/batch and /v1/jobs at
// base and returns the raw result objects per path name, in request order.
func wirePaths(t *testing.T, base string, reqs []wire.SolveRequest) map[string][]json.RawMessage {
	t.Helper()
	out := map[string][]json.RawMessage{}
	for i, req := range reqs {
		resp, body := postJSON(t, base+"/v1/solve", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, resp.StatusCode, body)
		}
		out["solve"] = append(out["solve"], body)
	}
	const chunk = 32
	for lo := 0; lo < len(reqs); lo += chunk {
		hi := min(lo+chunk, len(reqs))
		resp, body := postJSON(t, base+"/v1/batch", wire.BatchRequest{Requests: reqs[lo:hi]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
		}
		var br struct {
			Results []struct {
				Result json.RawMessage `json:"result"`
				Error  string          `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &br); err != nil || len(br.Results) != hi-lo {
			t.Fatalf("batch: bad response (%v): %s", err, body)
		}
		for i, item := range br.Results {
			if item.Result == nil {
				t.Fatalf("batch %d: %s", lo+i, item.Error)
			}
			out["batch"] = append(out["batch"], item.Result)
		}
	}
	for i, req := range reqs {
		resp, body := jobCall(t, http.MethodPost, base+"/v1/jobs", "", wire.JobRequest{Matrix: req.Matrix, Options: req.Options})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: status %d: %s", i, resp.StatusCode, body)
		}
		id := decodeGWJob(t, body).ID
		if ev := streamGWTerminal(t, base, id, ""); ev.Job.State != wire.JobDone {
			t.Fatalf("job %d ended %s: %s", i, ev.Job.State, ev.Job.Error)
		}
		resp, body = jobCall(t, http.MethodGet, base+"/v1/jobs/"+id, "", nil)
		var job struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &job); err != nil || resp.StatusCode != http.StatusOK || job.Result == nil {
			t.Fatalf("job %d: status %d (%v): %s", i, resp.StatusCode, err, body)
		}
		out["jobs"] = append(out["jobs"], job.Result)
	}
	return out
}

// TestGoldenWireCorpus sends the golden corpus through the sync, batch and
// job paths of one ebmfd and of a gateway over two conflict-budgeted
// backends without a default deadline. Within a tier the three paths must
// agree record for record (the tiers may order rectangles differently),
// and the records of both tiers must hash to goldenDigest.
func TestGoldenWireCorpus(t *testing.T) {
	opts := core.DefaultOptions()
	opts.ConflictBudget = goldenConflictBudget
	tc := newJobCluster(t, 2, server.Config{MaxQueue: 256, DefaultTimeout: -1, Options: &opts}, Config{})
	corpus := goldenCorpus()
	reqs := make([]wire.SolveRequest, len(corpus))
	for i, in := range corpus {
		reqs[i] = wire.SolveRequest{Matrix: in.matrix}
	}
	h := sha256.New()
	for _, tier := range []struct{ name, url string }{
		{"ebmfd", tc.backends[0].URL},
		{"ebmfgw", tc.ts.URL},
	} {
		records := map[string][]string{}
		for path, raws := range wirePaths(t, tier.url, reqs) {
			for i, raw := range raws {
				records[path] = append(records[path], goldenRecord(t, corpus[i].name, raw))
			}
		}
		ref := records["solve"]
		for _, path := range []string{"batch", "jobs"} {
			for i, rec := range records[path] {
				if rec != ref[i] {
					t.Fatalf("%s %s differs from its solve path:\n got %s\nwant %s", tier.name, path, rec, ref[i])
				}
			}
		}
		fmt.Fprintf(h, "%s\n%s\n", tier.name, strings.Join(ref, "\n"))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Fatalf("golden corpus digest %s, want %s (%d instances)", got, goldenDigest, len(corpus))
	}
}
