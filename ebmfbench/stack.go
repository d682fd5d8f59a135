package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// stack is one set of serving processes, hosted in this process on loopback
// listeners and configured with the cmd/ebmfd and cmd/ebmfgw defaults: one
// ebmfd, or (fleet) ebmfgw in front of two ebmfd with durable stores.
type stack struct {
	url      string      // where clients send: the gateway, or the only ebmfd
	tracer   *obs.Tracer // the tracer of the tier at url
	backends []string
	gw       *cluster.Gateway
	servers  []*server.Server
	stores   []*store.Store
	https    []*http.Server
	serveWG  sync.WaitGroup
	accepts  atomic.Int64 // connections accepted by the ebmfd listeners
	dir      string
}

var quiet = log.New(io.Discard, "", 0)

// newTracer traces every solve (-trace-sample 1), as the daemons default
// to. ring is the recent-traces ring size; 0 keeps the daemons' default.
func newTracer(ring int) *obs.Tracer {
	return obs.New(obs.Config{SampleEvery: 1, RingSize: ring, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
}

// startStack starts a stack whose entry tier (the gateway, or the only
// ebmfd) keeps its last ring traces; the other tiers keep the default.
func startStack(fleet bool, dir string, ring int) (*stack, error) {
	s := &stack{dir: dir}
	n := 1
	if fleet {
		n = 2
	}
	for i := range n {
		var st *store.Store
		if fleet {
			var err error
			st, err = store.Open(filepath.Join(dir, fmt.Sprintf("store%d", i)), store.Options{Sync: store.SyncInterval, Logger: quiet})
			if err != nil {
				s.close()
				return nil, fmt.Errorf("store: %w", err)
			}
			s.stores = append(s.stores, st)
		}
		tr := newTracer(0)
		if !fleet {
			tr = newTracer(ring)
			s.tracer = tr
		}
		opts := core.DefaultOptions()
		opts.ConflictBudget = server.DefaultConflictBudget
		srv := server.New(server.Config{
			CacheCapacity:     1024,
			MaxConcurrent:     runtime.GOMAXPROCS(0),
			MaxQueue:          64,
			DefaultTimeout:    30 * time.Second,
			MaxTimeout:        2 * time.Minute,
			MaxConflictBudget: server.DefaultConflictBudget,
			MaxMatrixEntries:  1 << 20,
			MaxPortfolio:      8,
			MaxJobs:           1024,
			JobTTL:            10 * time.Minute,
			Options:           &opts,
			Logger:            quiet,
			Store:             st,
			Tracer:            tr,
		})
		s.servers = append(s.servers, srv)
		url, err := s.serve(srv.Handler(), &s.accepts)
		if err != nil {
			s.close()
			return nil, err
		}
		s.backends = append(s.backends, url)
	}
	s.url = s.backends[0]
	if !fleet {
		return s, nil
	}
	s.tracer = newTracer(ring)
	gw, err := cluster.New(cluster.Config{
		Backends:         s.backends,
		HedgeAfter:       2 * time.Second,
		LocalCacheSize:   512,
		ProbeInterval:    2 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Second,
		MaxInflight:      256,
		MaxMatrixEntries: 1 << 20,
		ReplicateFills:   1,
		FillTimeout:      5 * time.Second,
		MaxJobRoutes:     4096,
		Logger:           quiet,
		Tracer:           s.tracer,
	})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("gateway: %w", err)
	}
	s.gw = gw
	if s.url, err = s.serve(gw.Handler(), nil); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// serve starts an http.Server for h on a fresh loopback port, counting
// accepted connections into accepts when it is non-nil.
func (s *stack) serve(h http.Handler, accepts *atomic.Int64) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	if accepts != nil {
		ln = &countingListener{Listener: ln, n: accepts}
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.https = append(s.https, hs)
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "ebmfbench: serve: %v\n", err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts the stack down in the daemons' drain order: the gateway
// listener first, then the backends, and the stores only after their
// servers have drained.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for i := len(s.https) - 1; i >= 0; i-- {
		errs = append(errs, s.https[i].Shutdown(ctx))
	}
	s.serveWG.Wait()
	if s.gw != nil {
		s.gw.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	for _, st := range s.stores {
		errs = append(errs, st.Close())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// backendMetrics reads GET /v1/metrics from every ebmfd.
func (s *stack) backendMetrics(hc *http.Client) ([]server.MetricsSnapshot, error) {
	out := make([]server.MetricsSnapshot, len(s.backends))
	for i, u := range s.backends {
		if err := getJSON(hc, u+"/v1/metrics", &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *stack) gatewayMetrics(hc *http.Client) (*cluster.MetricsSnapshot, error) {
	if s.gw == nil {
		return nil, nil
	}
	var m cluster.MetricsSnapshot
	return &m, getJSON(hc, s.url+"/v1/metrics", &m)
}

// waitFills blocks until the gateway has finished every cache-fill
// replication it started, so set-up traffic never overlaps the measured
// phase.
func (s *stack) waitFills(hc *http.Client, want int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := s.gatewayMetrics(hc)
		if err != nil || m == nil {
			return err
		}
		r := m.Replication
		if r.Sent+r.Dropped >= want && r.Stored+r.Duplicate+r.Failed == r.Sent {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fills did not settle: %+v (want %d)", r, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.Unmarshal(body, v)
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// newClient returns a keep-alive client capped at conns connections, with a
// counter of the connections it dialed. No timeout: a request ends only
// when its response has been read to the last byte.
func newClient(conns int) (*http.Client, *atomic.Int64) {
	var dials atomic.Int64
	d := &net.Dialer{}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err == nil {
				dials.Add(1)
			}
			return c, err
		},
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr}, &dials
}
