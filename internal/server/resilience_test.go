package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/tpch"
)

// TestRequestBodyTooLarge413: the /query body cap rejects oversized posts
// with 413 before any decoding or engine work.
func TestRequestBodyTooLarge413(t *testing.T) {
	_, ts := newTestServer(t, Config{Benchmark: "tpch"})
	big := bytes.Repeat([]byte("x"), maxRequestBody+1)
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	// A normal request still works afterwards.
	if _, code := postQuery(t, ts.URL, QueryRequest{Query: 6}); code != http.StatusOK {
		t.Fatalf("post-413 status %d", code)
	}
}

// TestDeadlineExpiryAborts503: a request whose deadline fires while it waits
// for its shard's engine semaphore gets a 503 and counts as a deadline
// expiry; the shard serves normally once free.
func TestDeadlineExpiryAborts503(t *testing.T) {
	s, ts := newTestServer(t, Config{Benchmark: "tpch", RequestTimeout: 100 * time.Millisecond})
	sh := s.shards[0]
	sh.sem <- struct{}{} // occupy the engine from outside
	if _, code := postQuery(t, ts.URL, QueryRequest{Query: 6}); code != http.StatusServiceUnavailable {
		t.Fatalf("status %d with the shard held, want 503", code)
	}
	<-sh.sem
	if got := s.res.deadlineExpiries.Load(); got == 0 {
		t.Fatal("deadline expiry not counted")
	}
	if _, code := postQuery(t, ts.URL, QueryRequest{Query: 6}); code != http.StatusOK {
		t.Fatalf("post-release status %d", code)
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Resilience.DeadlineExpiries == 0 {
		t.Fatal("/stats resilience block missing the deadline expiry")
	}
}

// TestLoadSheddingRetryAfter: with the shard queue bounded, arrivals beyond
// the bound fail fast with 503 + Retry-After instead of stacking up.
func TestLoadSheddingRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Benchmark:      "tpch",
		RequestTimeout: 2 * time.Second,
		MaxShardQueue:  1,
	})
	sh := s.shards[0]
	sh.sem <- struct{}{}
	// First client queues (within the bound) and blocks on the semaphore.
	done := make(chan int, 1)
	go func() {
		_, code := postQuery(t, ts.URL, QueryRequest{Query: 6})
		done <- code
	}()
	for i := 0; sh.waiting.Load() == 0 && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if sh.waiting.Load() == 0 {
		t.Fatal("first client never queued")
	}
	// Second client exceeds the bound and is shed immediately.
	body, _ := json.Marshal(QueryRequest{Query: 6})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	<-sh.sem // free the shard; the queued client completes normally
	if code := <-done; code != http.StatusOK {
		t.Fatalf("queued client finished with %d", code)
	}
	if s.res.shed.Load() == 0 {
		t.Fatal("shed request not counted")
	}
}

// TestBreakerLifecycle walks the one Breaker type through its full state
// cycle under a fake clock, once per configuration it is deployed in: the
// per-shard breaker (breakerThreshold, breakerCooldown) and the per-peer
// breaker (the federation coordinator's 3 failures, 2 s), at both edges of
// the jitter range. Consecutive
// failures trip it open, frozen outcomes never count, the jittered cooldown
// (scale drawn once per trip, within [1, 1.5]× the configured cooldown) admits
// exactly one probe at a time, the probe's outcome closes or re-arms it, and
// Reset — the peer health prober's path — closes it from any state.
func TestBreakerLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold int
		cooldown  time.Duration
		r         float64 // pinned jitter draw
	}{
		{"shard/jitter-low", breakerThreshold, breakerCooldown, 0},
		{"shard/jitter-high", breakerThreshold, breakerCooldown, 0.999},
		{"shard/threshold-1", 1, time.Hour, 0.5},
		{"peer/jitter-low", 3, 2 * time.Second, 0},
		{"peer/jitter-high", 3, 2 * time.Second, 1},
		{"peer/threshold-1", 1, 100 * time.Millisecond, 0.25},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(1000, 0)
			draws := 0
			b := &Breaker{
				Threshold: tc.threshold,
				Cooldown:  tc.cooldown,
				NowFn:     func() time.Time { return now },
				RandFn:    func() float64 { draws++; return tc.r },
			}
			window := time.Duration(float64(tc.cooldown) * (1 + 0.5*tc.r))
			if limit := time.Duration(1.5 * float64(tc.cooldown)); window < tc.cooldown || window > limit {
				t.Fatalf("jittered window %v outside [%v, %v]", window, tc.cooldown, limit)
			}
			expect := func(step string, st BreakerState, trips int64, fails int) {
				t.Helper()
				if gs, gt, gf := b.Snapshot(); gs != st || gt != trips || gf != fails {
					t.Fatalf("%s: state %v trips %d failures %d, want %v/%d/%d", step, gs, gt, gf, st, trips, fails)
				}
			}

			// Sparse failures never trip: only a consecutive streak does.
			for i := 0; i < tc.threshold-1; i++ {
				if m := b.Admit(); m != BreakerNormal {
					t.Fatalf("closed breaker admitted %v", m)
				}
				b.Record(BreakerNormal, true)
			}
			expect("below threshold", BreakerClosed, 0, tc.threshold-1)
			b.Record(BreakerNormal, false)
			for i := 0; i < tc.threshold-1; i++ {
				b.Record(BreakerNormal, true)
			}
			expect("streak reset by a success", BreakerClosed, 0, tc.threshold-1)
			b.Record(BreakerNormal, true)
			expect("threshold reached", BreakerOpen, 1, 0)

			// While open: refused, and frozen outcomes are not evidence.
			if m := b.Admit(); m != BreakerFrozen {
				t.Fatalf("open breaker admitted %v", m)
			}
			b.Record(BreakerFrozen, true)
			expect("frozen failure", BreakerOpen, 1, 0)

			// Strictly inside the jittered window: refused. At the window:
			// one probe, everyone else still refused.
			now = now.Add(window - time.Millisecond)
			if m := b.Admit(); m != BreakerFrozen {
				t.Fatalf("breaker probed before its jittered cooldown %v", window)
			}
			now = now.Add(time.Millisecond)
			if m := b.Admit(); m != BreakerProbe {
				t.Fatalf("breaker still refusing at its jittered cooldown %v", window)
			}
			if m := b.Admit(); m != BreakerFrozen {
				t.Fatalf("second concurrent request got %v while a probe is in flight", m)
			}
			expect("probe in flight", BreakerHalfOpen, 1, 0)
			if draws != 1 {
				t.Fatalf("jitter drawn %d times, want once per trip (not per admit)", draws)
			}

			// Probe fails: fully open again, cooldown re-armed with a fresh
			// jitter draw.
			b.Record(BreakerProbe, true)
			expect("failed probe", BreakerOpen, 2, 0)
			if draws != 2 {
				t.Fatalf("failed probe drew jitter %d times in total, want 2", draws)
			}
			if m := b.Admit(); m != BreakerFrozen {
				t.Fatal("breaker half-opened again without a cooldown")
			}

			// Next probe succeeds: closed, failures reset.
			now = now.Add(window)
			if m := b.Admit(); m != BreakerProbe {
				t.Fatal("re-armed cooldown did not admit a probe")
			}
			b.Record(BreakerProbe, false)
			expect("successful probe", BreakerClosed, 2, 0)

			// Reset closes an open breaker, and frees the probe slot of a
			// half-open one.
			for i := 0; i < tc.threshold; i++ {
				b.Record(BreakerNormal, true)
			}
			expect("tripped again", BreakerOpen, 3, 0)
			b.Reset()
			expect("reset while open", BreakerClosed, 3, 0)
			for i := 0; i < tc.threshold; i++ {
				b.Record(BreakerNormal, true)
			}
			now = now.Add(window)
			if m := b.Admit(); m != BreakerProbe {
				t.Fatal("cooldown did not admit a probe")
			}
			b.Reset()
			if m := b.Admit(); m != BreakerNormal {
				t.Fatalf("reset half-open breaker admitted %v, want normal", m)
			}
			expect("reset while half-open", BreakerClosed, 4, 0)
		})
	}
}

// TestBreakerDegradedServingHTTP arms the shard breaker and trips it through
// the serve path with deadline expiries: while the shard's engine semaphore
// is held from outside, each request's deadline fires in the queue. It then
// checks degraded serving, /healthz and the /stats resilience block, and
// both probe outcomes: a probe that expires reopens the breaker, a probe
// that runs closes it.
func TestBreakerDegradedServingHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Benchmark:      "tpch",
		Breaker:        true,
		RequestTimeout: 50 * time.Millisecond,
	})
	sh := s.shards[0]
	var nowNs atomic.Int64
	nowNs.Store(time.Now().UnixNano())
	sh.brk.mu.Lock()
	sh.brk.NowFn = func() time.Time { return time.Unix(0, nowNs.Load()) }
	sh.brk.mu.Unlock()
	expect := func(step string, st BreakerState, trips int64) {
		t.Helper()
		if gs, gt, _ := sh.brk.Snapshot(); gs != st || gt != trips {
			t.Fatalf("%s: breaker %v with %d trips, want %v with %d", step, gs, gt, st, trips)
		}
	}
	expire := func(step string) {
		t.Helper()
		sh.sem <- struct{}{}
		defer func() { <-sh.sem }()
		if _, code := postQuery(t, ts.URL, QueryRequest{Query: 6}); code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d with the shard held, want 503", step, code)
		}
	}

	for i := 0; i < breakerThreshold; i++ {
		expect(fmt.Sprintf("before expiry %d", i+1), BreakerClosed, 0)
		expire(fmt.Sprintf("expiry %d", i+1))
	}
	expect("after the expiries", BreakerOpen, 1)
	if got := s.res.deadlineExpiries.Load(); got != breakerThreshold {
		t.Fatalf("deadline expiries = %d, want %d", got, breakerThreshold)
	}
	qr, code := postQuery(t, ts.URL, QueryRequest{Query: 6})
	if code != http.StatusOK || !qr.Degraded {
		t.Fatalf("open breaker did not serve degraded: code %d, %+v", code, qr)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with a degraded shard: %d, want 503", hresp.StatusCode)
	}
	if health.OK || len(health.Shards) != 1 || !health.Shards[0].Degraded {
		t.Fatalf("healthz body: %+v", health)
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	br := stats.Resilience.Breakers
	if len(br) != 1 || br[0].State != "open" || br[0].Trips != 1 {
		t.Fatalf("resilience breakers: %+v", br)
	}

	// Past the cooldown (at most 1.5× with jitter) the next request is the
	// half-open probe. With the shard held it expires too, and the breaker
	// reopens behind it.
	nowNs.Add(int64(2 * breakerCooldown))
	expire("expiring probe")
	expect("after the expiring probe", BreakerOpen, 2)

	// A probe that reaches the engine runs at full fidelity and closes it.
	nowNs.Add(int64(2 * breakerCooldown))
	if qr, code := postQuery(t, ts.URL, QueryRequest{Query: 6}); code != http.StatusOK || qr.Degraded {
		t.Fatalf("probe: code %d, %+v", code, qr)
	}
	expect("after the successful probe", BreakerClosed, 2)
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || !health.OK {
		t.Fatalf("healthz after the breaker closed: %d %+v", code, health)
	}
}

// TestBreakerTripsOnShedRequests: with the breaker armed and the shard queue
// bounded, shed requests count against the shard. One client waits on the
// held shard; the next breakerThreshold arrivals are shed with 503 +
// Retry-After and trip the breaker, so the request after them is served
// degraded.
func TestBreakerTripsOnShedRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Benchmark:     "tpch",
		Breaker:       true,
		MaxShardQueue: 1,
	})
	sh := s.shards[0]
	sh.sem <- struct{}{}
	var once sync.Once
	release := func() { once.Do(func() { <-sh.sem }) }
	defer release() // a failure below must not leave the queued client stuck
	done := make(chan int, 1)
	go func() {
		_, code := postQuery(t, ts.URL, QueryRequest{Query: 6})
		done <- code
	}()
	for i := 0; sh.waiting.Load() == 0 && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if sh.waiting.Load() == 0 {
		t.Fatal("first client never queued")
	}
	body, _ := json.Marshal(QueryRequest{Query: 6})
	for i := 0; i < breakerThreshold; i++ {
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("arrival %d: status %d, Retry-After %q; want a shed 503", i+1, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	if st, trips, _ := sh.brk.Snapshot(); st != BreakerOpen || trips != 1 {
		t.Fatalf("after %d sheds: breaker %v with %d trips, want open with 1", breakerThreshold, st, trips)
	}
	release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("queued client finished with %d", code)
	}
	if qr, code := postQuery(t, ts.URL, QueryRequest{Query: 6}); code != http.StatusOK || !qr.Degraded {
		t.Fatalf("open breaker did not serve degraded: code %d, %+v", code, qr)
	}
	if got := s.res.shed.Load(); got != breakerThreshold {
		t.Fatalf("shed requests = %d, want %d", got, breakerThreshold)
	}
}

// TestPanicRecoveryMiddleware: a handler panic becomes a 500 plus a counter,
// not a dead daemon.
func TestPanicRecoveryMiddleware(t *testing.T) {
	s, ts := newTestServer(t, Config{Benchmark: "tpch"})
	s.panicHook = func(r *http.Request) {
		if r.URL.Path == "/query" {
			panic("deliberate test panic")
		}
	}
	if _, code := postQuery(t, ts.URL, QueryRequest{Query: 6}); code != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d, want 500", code)
	}
	s.panicHook = nil
	if _, code := postQuery(t, ts.URL, QueryRequest{Query: 6}); code != http.StatusOK {
		t.Fatalf("post-panic status %d — daemon did not recover", code)
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Resilience.PanicsRecovered != 1 {
		t.Fatalf("panics_recovered = %d, want 1", stats.Resilience.PanicsRecovered)
	}
}

// TestWithAllShardsReleasesOnPanic: the epoch-publication barrier takes every
// shard's engine semaphore; a panic inside it (which withRecovery turns into
// a 500 on /admin/append) must not leave the pool locked behind a /healthz
// that still says 200.
func TestWithAllShardsReleasesOnPanic(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.05, Seed: 42})
	s, _ := newTestServer(t, Config{Engines: []*exec.Engine{
		exec.NewEngine(cat, sim.TwoSocket(), cost.Default()),
		exec.NewEngine(cat, sim.TwoSocket(), cost.Default()),
		exec.NewEngine(cat, sim.TwoSocket(), cost.Default()),
	}})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panic did not propagate out of withAllShards")
			}
		}()
		s.withAllShards(func() { panic("deliberate test panic") })
	}()
	for _, sh := range s.shards {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		ran := false
		err := s.doCtx(ctx, sh, func() { ran = true })
		cancel()
		if err != nil || !ran {
			t.Fatalf("shard %d still locked after a panic under withAllShards: %v", sh.id, err)
		}
	}
}

// TestAdmissionSlotsConcurrentChurn hammers the admission slot allocator
// from many goroutines: no two concurrent holders may share a slot index,
// and the slot array must not grow past the true peak concurrency.
func TestAdmissionSlotsConcurrentChurn(t *testing.T) {
	var adm admissionSlots
	const workers, iters = 16, 200
	var held [workers * 2]atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				idx, active := adm.acquire()
				if idx < 0 || idx >= len(held) {
					errs <- fmt.Errorf("slot %d out of range", idx)
					return
				}
				if active < 1 || active > workers {
					errs <- fmt.Errorf("active %d out of range", active)
					return
				}
				if !held[idx].CompareAndSwap(false, true) {
					errs <- fmt.Errorf("slot %d double-acquired", idx)
					return
				}
				held[idx].Store(false)
				adm.release(idx)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if peak := adm.peakActive(); peak < 1 || peak > workers {
		t.Fatalf("peak %d out of range", peak)
	}
	adm.mu.Lock()
	slots := len(adm.slots)
	adm.mu.Unlock()
	if slots > workers {
		t.Fatalf("slot array grew to %d for %d workers", slots, workers)
	}
}

// TestServerChaosReconvergence is the end-to-end resilience path over HTTP:
// converge a query, lose most of the machine mid-run via InjectFault, watch
// the staleness detector reopen the session on the serving path, and verify
// the /stats resilience block reports the faults and the re-convergence.
func TestServerChaosReconvergence(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Benchmark: "tpch",
		Staleness: true,
	})
	post := func() QueryResponse {
		t.Helper()
		qr, code := postQuery(t, ts.URL, QueryRequest{Query: 6})
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		return qr
	}
	var qr QueryResponse
	for i := 0; i < 400; i++ {
		if qr = post(); qr.State == "converged" {
			break
		}
	}
	if qr.State != "converged" {
		t.Fatal("never converged")
	}

	// Chaos: take the machine from 32 threads down to 4 mid-run.
	if err := s.InjectFault(0, sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 0, Count: 16}); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectFault(0, sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 1, Count: 12}); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectFault(2, sim.FaultEvent{}); err == nil {
		t.Fatal("InjectFault accepted an out-of-range shard")
	}

	// Serving runs on the shrunken machine trip staleness detection and the
	// session adapts again to a new convergence.
	var staleNs float64
	reconverged := false
	for i := 0; i < 400; i++ {
		qr = post()
		if qr.State == "adapting" && staleNs == 0 {
			staleNs = qr.LatencyNs // first re-exploration run ≈ the degraded serial
		}
		if staleNs > 0 && qr.State == "converged" {
			reconverged = true
			break
		}
	}
	if !reconverged {
		t.Fatal("session never re-converged after core loss")
	}

	var stats StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	res := stats.Resilience
	if res.FaultsInjected < 2 || res.CoresLost != 28 {
		t.Fatalf("faults injected %d cores lost %d, want >=2 and 28", res.FaultsInjected, res.CoresLost)
	}
	if res.Reconvergences != 1 {
		t.Fatalf("reconvergences = %d, want 1", res.Reconvergences)
	}
	// The breaker is disabled here, so chaos must not mark the shard down.
	var health HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || !health.OK {
		t.Fatalf("healthz after re-convergence: %d %+v", code, health)
	}
}

// TestServerDriftReopenOverHTTP pins the drift loop's HTTP wiring:
// Config.Drift reaching the shard caches, the client's max_cores reaching the
// run, and /stats reporting the reopen. One shard, admission off (the client
// budget throttles deterministically). q6 converges alone; the mix then
// rotates to three q14 servings per q6 serving with q6 under a 2-core client
// budget. Staleness skips throttled servings, so only the drift detector can
// reopen the session; it re-converges under the budget and still returns the
// values it returned before the rotation.
func TestServerDriftReopenOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Benchmark: "tpch",
		Staleness: true,
		Drift:     true,
	})
	post := func(req QueryRequest) QueryResponse {
		t.Helper()
		qr, code := postQuery(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("%+v: status %d", req, code)
		}
		return qr
	}
	q6, q14 := QueryRequest{Query: 6}, QueryRequest{Query: 14}
	q6Throttled := QueryRequest{Query: 6, MaxCores: 2}

	state := ""
	for i := 0; i < 4000 && state != "converged"; i++ {
		state = post(q6).State
	}
	if state != "converged" {
		t.Fatal("q6 never converged")
	}
	before, err := DecodeResult(postResultRaw(t, ts.URL, QueryRequest{Query: 6, Results: true}, false))
	if err != nil {
		t.Fatal(err)
	}

	rotateUntil := func(want string) int {
		t.Helper()
		for n := 1; n <= 4000; n++ {
			for j := 0; j < 3; j++ {
				post(q14)
			}
			if post(q6Throttled).State == want {
				return n
			}
		}
		t.Fatalf("q6 never turned %s under the rotated mix", want)
		return 0
	}
	rotated := rotateUntil("adapting")
	reconverged := rotateUntil("converged")
	t.Logf("drift reopen after %d throttled q6 servings, re-converged after %d more", rotated, reconverged)

	var stats StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Cache.DriftReopens != 1 {
		t.Fatalf("/stats cache.drift_reopens = %d, want 1", stats.Cache.DriftReopens)
	}
	if len(stats.Tenants) != 1 || stats.Tenants[0].Cache.DriftReopens != 1 {
		t.Fatalf("/stats per-tenant drift_reopens disagrees with the cache block: %+v", stats.Tenants)
	}
	q6Throttled.Results = true
	after, err := DecodeResult(postResultRaw(t, ts.URL, q6Throttled, false))
	if err != nil {
		t.Fatal(err)
	}
	if !exec.ResultsEqual(after.Values, before.Values) {
		t.Fatal("q6 re-converged under the client budget decodes to different values than before the rotation")
	}
}
