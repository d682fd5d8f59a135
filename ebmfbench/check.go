package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/rect"
	"repro/internal/wire"
)

// errDeadline marks an answer that ended on the server's deadline or a
// cancellation: a failure, and counted apart so a timer-bound run shows.
var errDeadline = errors.New("request ended on a deadline")

// check decodes one response and verifies it against the submitted matrix:
// the partition must be an exact cover of the matrix's ones by disjoint
// all-ones rectangles, its depth must equal its rectangle count and be at
// least rank_lb, a proved answer on the known-optimal family must hit the
// planted optimum, and a hit must repeat its class's cold depth
// (classDepth[class], 0 while the class is still unknown).
func check(w *workload, req *request, status int, body []byte, classDepth []int) (*wire.ResultJSON, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	var res wire.ResultJSON
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if res.TimedOut || res.Canceled {
		return &res, errDeadline
	}
	if res.Depth != len(res.Partition) {
		return &res, fmt.Errorf("depth %d but %d rectangles", res.Depth, len(res.Partition))
	}
	if res.Depth < res.RankLB {
		return &res, fmt.Errorf("depth %d below rank_lb %d", res.Depth, res.RankLB)
	}
	m, err := matrix(w.body(req))
	if err != nil {
		return &res, fmt.Errorf("request matrix: %w", err)
	}
	rows, cols := m.Rows(), m.Cols()
	p := rect.NewPartition(m)
	for k, r := range res.Partition {
		if !inRange(r.Rows, rows) || !inRange(r.Cols, cols) {
			return &res, fmt.Errorf("rectangle %d indexes outside the %d×%d matrix", k, rows, cols)
		}
		p.Add(rect.FromIndices(rows, cols, r.Rows, r.Cols))
	}
	if err := p.Validate(); err != nil {
		return &res, fmt.Errorf("partition: %w", err)
	}
	if req.known >= 0 && (res.Depth < req.known || res.Optimal && res.Depth != req.known) {
		return &res, fmt.Errorf("depth %d (optimal=%v) against planted optimum %d", res.Depth, res.Optimal, req.known)
	}
	if req.class >= 0 && classDepth[req.class] != 0 && classDepth[req.class] != res.Depth {
		return &res, fmt.Errorf("class %d answered depth %d, its cold answer was %d", req.class, res.Depth, classDepth[req.class])
	}
	return &res, nil
}

func inRange(idx []int, n int) bool {
	for _, i := range idx {
		if i < 0 || i >= n {
			return false
		}
	}
	return true
}
