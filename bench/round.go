package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one keep-alive HTTP connection to one server: every request of a
// closed-loop client goes down the same socket, one at a time.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer // body of the last reply
}

func newConn(addr string) *conn {
	return &conn{
		hc: &http.Client{
			Timeout:   5 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
		base: "http://" + addr,
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request, reads the whole reply into c.buf and returns the
// status with the wall time from send to last byte, in milliseconds.
func (c *conn) do(method, path string, body []byte) (int, float64, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, float64(time.Since(t0)) / 1e6, err
}

// tally counts operations against failures for the whole run. An operation
// is one HTTP request to the daemon or the reference server; it fails on a
// transport error, the 5 s timeout, a non-200 status, or a wrong value.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	logged            int
}

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.logged++; t.logged <= 10 {
		fmt.Fprintf(os.Stderr, "bench: FAILED "+format+"\n", args...)
	}
}

// runConfig is what one invocation fixes for all its rounds.
type runConfig struct {
	seed        int64
	rounds      int
	measure     time.Duration // measured phase per round
	tail        time.Duration // write tail per round (workloads without Churn)
	warm        time.Duration // discarded warm-up per round
	extraSetups int           // start-stop cycles beyond the rounds, for setup_s
	apqd        string        // daemon binary built from the tree under test
	outDir      string
}

// The writer's period. Beside the measured phase of a churning workload it
// leaves the reader time to re-converge between epochs (~40 requests warm);
// in the short write tail of the others only the mutations themselves and
// the reads that race them are measured, so they come as fast as gives both
// populations a few hundred samples. Mutations that take longer than the
// period simply run back to back.
const (
	churnEvery = 100 * time.Millisecond
	tailEvery  = 10 * time.Millisecond
)

// checkEvery makes every n-th hot request carry "results":true and be
// compared value-for-value with the oracle.
const checkEvery = 50

// round is one pass of the skeleton against a freshly started daemon:
// set-up, cold phase, oracle check, warm-up, measured phase, write tail,
// oracle check, tear-down.
type round struct {
	w      *workload
	cfg    *runConfig
	o      *oracle
	t      *tally
	daemon *proc
	ref    *proc
	rd, rr *conn // the reader's connections: daemon, reference server

	// mutCount is bumped by the writer when a mutation starts and again when
	// it ends, so an odd value means one is in flight and (n/2)%2 is the
	// data state (oracle) whenever it is even.
	mutCount atomic.Int64
}

// samples is what one timed phase collects. Latencies are milliseconds.
type samples struct {
	hot, serial [][]float64 // per hot query
	ref         []float64
	hotOverRef  []float64 // per cycle: hot latency ÷ the reference latency that followed it
	raced       []float64 // hot latencies of requests that overlapped a mutation
	appends     []float64
	truncates   []float64
	reconverge  []float64 // reader hot requests from a mutation until "converged" again
	daemonCPU   float64   // seconds over the phase
	refCPU      float64
	elapsed     float64 // seconds
}

// roundResult is everything a round measured, before any ratio is taken.
type roundResult struct {
	setupS          float64
	coldRequests    int
	coldSeconds     float64
	speedups        []float64 // daemon-reported speedup of each cold query at convergence
	coldLat         []float64
	coldRef         []float64
	measured, write *samples // write is measured itself when the workload churns
	peakRSSMB       float64
	stats           daemonStats
}

// daemonStats is the part of GET /stats the per-layer report reads.
type daemonStats struct {
	Errors            int64 `json:"errors"`
	CoalescedRequests int64 `json:"coalesced_requests"`
	Cache             struct {
		Hits        int64 `json:"hits"`
		Misses      int64 `json:"misses"`
		Evictions   int64 `json:"evictions"`
		DataReopens int64 `json:"data_reopens"`
	} `json:"cache"`
	PerShard []struct {
		Recycler struct {
			BufferHits    int64 `json:"buffer_hits"`
			BufferMisses  int64 `json:"buffer_misses"`
			RetainedBytes int64 `json:"retained_bytes"`
		} `json:"recycler"`
		Compile struct {
			Full    int64 `json:"full"`
			Derived int64 `json:"derived"`
		} `json:"compile"`
	} `json:"per_shard"`
}

func runRound(w *workload, cfg *runConfig, o *oracle, t *tally) (res *roundResult, err error) {
	r := &round{w: w, cfg: cfg, o: o, t: t}
	if r.ref, err = startRefServer(); err != nil {
		return nil, err
	}
	defer r.ref.stop()
	var setup time.Duration
	if r.daemon, setup, err = startDaemon(cfg.apqd, w, cfg.seed); err != nil {
		return nil, err
	}
	defer func() {
		r.daemon.stop()
		if err != nil {
			r.daemon.saveStderr(cfg.outDir)
		}
	}()
	r.rd, r.rr = newConn(r.daemon.addr), newConn(r.ref.addr)
	defer r.rd.close()
	defer r.rr.close()

	res = &roundResult{setupS: setup.Seconds()}
	if err = r.cold(res); err != nil {
		return nil, err
	}
	if err = r.verify(); err != nil {
		return nil, err
	}
	// A churning workload's measured phase is its write phase: it gets the
	// tail's share of the time too, and the writer's slower period.
	measure, every := cfg.measure, time.Duration(0)
	if w.Churn {
		measure, every = cfg.measure+cfg.tail, churnEvery
	}
	if _, err = r.phase(cfg.warm, every); err != nil {
		return nil, err
	}
	if res.measured, err = r.phase(measure, every); err != nil {
		return nil, err
	}
	res.write = res.measured
	if !w.Churn {
		if res.write, err = r.phase(cfg.tail, tailEvery); err != nil {
			return nil, err
		}
	}
	if err = r.verify(); err != nil {
		return nil, err
	}
	if res.peakRSSMB, err = peakRSSMB(r.daemon.cmd.Process.Pid); err != nil {
		return nil, err
	}
	if status, _, derr := r.rd.do(http.MethodGet, "/stats", nil); derr != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /stats: status %d: %v", status, derr)
	}
	if err = json.Unmarshal(r.rd.buf.Bytes(), &res.stats); err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	return res, nil
}

// query sends one POST /query and counts it. ok is false when the operation
// failed (already tallied).
func (r *round) query(c *conn, q query, body []byte) (ms float64, ok bool) {
	r.t.attempted.Add(1)
	status, ms, err := c.do(http.MethodPost, "/query", body)
	if err != nil || status != http.StatusOK {
		r.t.fail("%s %s: status %d: %v %s", r.w.Name, q, status, err, lastLine(c.buf.String()))
		return ms, false
	}
	return ms, true
}

func (r *round) reference(c *conn, spec refSpec) (ms float64, ok bool) {
	r.t.attempted.Add(1)
	status, ms, err := c.do(http.MethodGet, spec.path(), nil)
	if err != nil || status != http.StatusOK {
		r.t.fail("%s reference: status %d: %v", r.w.Name, status, err)
		return ms, false
	}
	return ms, true
}

// dataState is the oracle state of the dataset; only meaningful while no
// mutation is in flight.
func (r *round) dataState() int { return int(r.mutCount.Load()/2) % 2 }

// cold drives every cold query to convergence, one after another, with a
// reference request after every ColdRefEvery-th request.
func (r *round) cold(res *roundResult) error {
	t0 := time.Now()
	for _, q := range r.w.Cold {
		body := q.body(false, false)
		for n := 1; ; n++ {
			ms, ok := r.query(r.rd, q, body)
			if !ok {
				return fmt.Errorf("%s: cold request failed", q)
			}
			var reply struct {
				State   string  `json:"state"`
				Speedup float64 `json:"speedup"`
			}
			if err := json.Unmarshal(r.rd.buf.Bytes(), &reply); err != nil {
				return fmt.Errorf("%s: bad reply: %w", q, err)
			}
			res.coldRequests++
			res.coldLat = append(res.coldLat, ms)
			if res.coldRequests%r.w.ColdRefEvery == 0 {
				if ms, ok := r.reference(r.rr, r.w.RefCold); ok {
					res.coldRef = append(res.coldRef, ms)
				}
			}
			if reply.State == "converged" {
				res.speedups = append(res.speedups, reply.Speedup)
				break
			}
			if n >= 5000 {
				return fmt.Errorf("%s: not converged after %d requests", q, n)
			}
		}
	}
	res.coldSeconds = time.Since(t0).Seconds()
	return nil
}

// verify is the oracle check between phases, when no writer is running: each
// hot query's serial-mode and adaptive replies are fetched with values,
// checked against the harness's own expectation (select shapes) or against
// each other (named queries), plus three seed-chosen serial probes so the
// request sequence is not the same on every seed.
func (r *round) verify() error {
	state := r.dataState()
	check := func(q query, serial bool) error {
		if _, ok := r.query(r.rd, q, q.body(serial, true)); !ok {
			return fmt.Errorf("%s: oracle request failed", q)
		}
		if serial && q.Num != 0 {
			return r.o.recordSerial(q, r.rd.buf.Bytes())
		}
		return r.o.check(q, r.rd.buf.Bytes(), state)
	}
	rng := rand.New(rand.NewSource(r.cfg.seed + int64(r.mutCount.Load())))
	for i := 0; i < 3; i++ {
		lo := 1 + rng.Int63n(25)
		probe := query{Table: "lineitem", Column: "l_quantity", Lo: lo, Hi: lo + rng.Int63n(25)}
		if err := check(probe, true); err != nil {
			r.t.fail("%s: %v", r.w.Name, err)
			return err
		}
	}
	for _, q := range r.w.Hot {
		for _, serial := range []bool{true, false} {
			if err := check(q, serial); err != nil {
				r.t.fail("%s: %v", r.w.Name, err)
				return err
			}
		}
	}
	return nil
}

// phase repeats the fixed cycle [hot, reference, serial] on the reader's
// connections for d — one sample of each class per cycle, so all classes see
// the same machine at the same time — beside the writer when every > 0.
func (r *round) phase(d, every time.Duration) (*samples, error) {
	withWriter := every > 0
	nq := len(r.w.Hot)
	s := &samples{hot: make([][]float64, nq), serial: make([][]float64, nq)}
	hot, hotChecked, serial := make([][]byte, nq), make([][]byte, nq), make([][]byte, nq)
	for i, q := range r.w.Hot {
		hot[i], hotChecked[i], serial[i] = q.body(false, r.w.Results), q.body(false, true), q.body(true, r.w.Results)
	}
	dpid, rpid := r.daemon.cmd.Process.Pid, r.ref.cmd.Process.Pid
	dcpu0, err := cpuSeconds(dpid)
	if err != nil {
		return nil, err
	}
	rcpu0, err := cpuSeconds(rpid)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	if withWriter {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.writer(ctx, s, every)
		}()
	}
	stopWriter := func() {
		cancel()
		wg.Wait()
	}

	t0 := time.Now()
	lastCount := r.mutCount.Load()
	tracking, since := false, 0
	for i := 0; time.Since(t0) < d; i++ {
		qi := i % nq
		q := r.w.Hot[qi]
		checked := i%checkEvery == checkEvery-1
		body := hot[qi]
		if checked {
			body = hotChecked[qi]
		}
		c0 := r.mutCount.Load()
		ms, ok := r.query(r.rd, q, body)
		c1 := r.mutCount.Load()
		if !ok {
			stopWriter()
			return nil, fmt.Errorf("%s: hot request failed", q)
		}
		raced := c0 != c1 || c0%2 == 1
		s.hot[qi] = append(s.hot[qi], ms)
		if raced {
			s.raced = append(s.raced, ms)
		}
		if c0 != lastCount {
			lastCount, tracking, since = c1, true, 0
		}
		if tracking {
			since++
			if !raced && bytes.Contains(r.rd.buf.Bytes(), []byte(`"state":"converged"`)) {
				s.reconverge = append(s.reconverge, float64(since))
				tracking = false
			}
		}
		// A named query's expectation is its serial reply at the data state
		// it was recorded in; beside a writer that state is gone.
		if checked && (q.Num == 0 || !withWriter) {
			states := []int{int(c0/2) % 2}
			if raced {
				states = []int{0, 1}
			}
			if err := r.o.check(q, r.rd.buf.Bytes(), states...); err != nil {
				r.t.fail("%s: %v", r.w.Name, err)
			}
		}
		if refMs, ok := r.reference(r.rr, r.w.RefHot); ok {
			s.ref = append(s.ref, refMs)
			s.hotOverRef = append(s.hotOverRef, ms/refMs)
		}
		if ms, ok := r.query(r.rd, q, serial[qi]); ok {
			s.serial[qi] = append(s.serial[qi], ms)
		}
	}
	s.elapsed = time.Since(t0).Seconds()
	stopWriter()
	dcpu1, err := cpuSeconds(dpid)
	if err != nil {
		return nil, err
	}
	rcpu1, err := cpuSeconds(rpid)
	if err != nil {
		return nil, err
	}
	s.daemonCPU, s.refCPU = dcpu1-dcpu0, rcpu1-rcpu0
	return s, nil
}

// writer alternates POST /admin/append and POST /admin/truncate of the same
// mutRows rows once per period on its own connection until ctx ends. It owns
// the appends and truncates fields of s. (A writer-side reference request
// after each mutation was measured and dropped: the reader's reference
// samples of the same phase are ten times as many and gave the mutation
// ratio a third less run-to-run spread.)
func (r *round) writer(ctx context.Context, s *samples, every time.Duration) {
	wd := newConn(r.daemon.addr)
	defer wd.close()
	appendBody, truncateBody := r.o.appendBody(), r.o.truncateBody()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		path, body, into := "/admin/append", appendBody, &s.appends
		if r.dataState() == 1 {
			path, body, into = "/admin/truncate", truncateBody, &s.truncates
		}
		r.t.attempted.Add(1)
		r.mutCount.Add(1)
		status, ms, err := wd.do(http.MethodPost, path, body)
		if err != nil || status != http.StatusOK {
			// The data state is now unknown; every later check would be
			// meaningless, so the writer stops and the run fails.
			r.t.fail("%s %s: status %d: %v %s", r.w.Name, path, status, err, lastLine(wd.buf.String()))
			return
		}
		r.mutCount.Add(1)
		*into = append(*into, ms)
	}
}
