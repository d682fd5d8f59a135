package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/solvecache"
)

// benchMatrix is a moderately hard instance (Fig. 1b) whose cold solve runs
// the full pipeline including the SAT narrowing stage.
func benchMatrix() *bitmat.Matrix {
	return bitmat.MustParse("101100\n010011\n101010\n010101\n111000\n000111")
}

// BenchmarkServerColdSolve measures the uncached pipeline latency through
// the cache layer (fingerprint + solve + lift): the cost a first-of-its-kind
// request pays.
func BenchmarkServerColdSolve(b *testing.B) {
	m := benchMatrix()
	opts := core.DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := solvecache.New(0)
		if _, err := c.Solve(m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerCacheHit measures a permuted resubmission served from
// cache: fingerprint + lookup + lift + re-validation, no pipeline work.
func BenchmarkServerCacheHit(b *testing.B) {
	m := benchMatrix()
	opts := core.DefaultOptions()
	c := solvecache.New(0)
	if _, err := c.Solve(m, opts); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	perms := make([]*bitmat.Matrix, 16)
	for i := range perms {
		rp, cp := rng.Perm(m.Rows()), rng.Perm(m.Cols())
		p := bitmat.New(m.Rows(), m.Cols())
		m.ForEachOne(func(r, q int) { p.Set(rp[r], cp[q], true) })
		perms[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Solve(perms[i%len(perms)], opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CacheHit {
			b.Fatal("expected cache hit")
		}
	}
}

// BenchmarkServerHTTPCacheHit measures the full HTTP round trip for a cached
// solve — JSON decode, admission, cache hit, JSON encode. Bodies are drained
// before closing so the client keeps one connection alive: an undrained
// close makes every op dial a fresh TCP connection.
func BenchmarkServerHTTPCacheHit(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]string{"matrix": benchMatrix().String()})
	warm, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkServerFingerprint isolates canonicalization, the fixed per-request
// overhead the cache adds to every solve.
func BenchmarkServerFingerprint(b *testing.B) {
	m := benchMatrix()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if fp := bitmat.ComputeFingerprint(m); !fp.Exact {
			b.Fatal("inexact fingerprint")
		}
	}
}
