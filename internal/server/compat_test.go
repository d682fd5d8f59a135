package server

import (
	"net/http"
	"testing"

	"repro/internal/wire"
)

// TestPortfolioBadStrategy400: an unknown strategy name is a client error.
func TestPortfolioBadStrategy400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := wire.SolveRequest{
		Matrix:  fig1b,
		Options: &wire.SolveOptions{PortfolioStrategies: []string{"canonical", "bogus"}},
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
}
