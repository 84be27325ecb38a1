package plancache

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestCacheStalenessReopensAndPersistsNewConvergence drives the full
// serving-layer staleness loop: converge through the cache, lose half the
// machine, watch the converged serving path trip the detector, re-converge
// on the shrunken machine, and verify the persistence hook fires again for
// the new convergence (the store is updated only on done transitions).
func TestCacheStalenessReopensAndPersistsNewConvergence(t *testing.T) {
	eng := newEngine(t)
	var persisted atomic.Int64
	c := New(eng, Config{
		Staleness: true,
		Persist:   func(*Entry) { persisted.Add(1) },
	})
	fp := Fingerprint("test-db", "tpch:q6")
	invoke := func() *Result {
		t.Helper()
		r, err := c.InvokeTenant("", fp, "tpch:q6", q6(), exec.JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	var r *Result
	for i := 0; i < 400; i++ {
		if r = invoke(); r.Invocation.Converged {
			break
		}
	}
	if !r.Invocation.Converged {
		t.Fatal("session never converged")
	}
	if got := persisted.Load(); got != 1 {
		t.Fatalf("persisted %d times before the fault, want 1", got)
	}
	for i := 0; i < 3; i++ {
		if r = invoke(); r.Invocation.Reopened {
			t.Fatal("in-band converged serving reopened the session")
		}
	}

	// Losing half the machine costs the DOP-8 plan only ~20% (NUMA) — within
	// the band. Take the machine down to 4 cores: a 3×+ blowout.
	eng.Machine().InjectFault(sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 0, Count: 16})
	eng.Machine().InjectFault(sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 1, Count: 12})

	var staleNs float64
	reopened := false
	for i := 0; i < 10; i++ {
		r = invoke()
		staleNs = r.Invocation.LatencyNs
		if r.Invocation.Reopened {
			reopened = true
			break
		}
	}
	if !reopened {
		t.Fatalf("staleness never tripped through the converged serving path (stale %.0f)", staleNs)
	}
	if !r.Invocation.Converged {
		t.Fatal("the tripping invocation was served converged and must say so")
	}
	if st := c.Stats(); st.Reconvergences != 1 {
		t.Fatalf("cache reconvergences = %d, want 1", st.Reconvergences)
	}
	if ts := c.TenantStats()[""]; ts.Reconvergences != 1 {
		t.Fatalf("tenant reconvergences = %d, want 1", ts.Reconvergences)
	}

	// Subsequent invocations are adaptive runs again and re-converge.
	for i := 0; i < 300; i++ {
		if r = invoke(); r.Invocation.Converged {
			break
		}
	}
	if !r.Invocation.Converged {
		t.Fatal("re-convergence did not halt within 300 invocations")
	}
	if got := persisted.Load(); got != 2 {
		t.Fatalf("persisted %d times after re-convergence, want 2 (once per convergence)", got)
	}
	post := invoke()
	if post.Invocation.LatencyNs >= staleNs {
		t.Fatalf("re-converged serving (%.0f ns) does not beat the stale plan (%.0f ns)",
			post.Invocation.LatencyNs, staleNs)
	}
	t.Logf("stale %.0f ns → re-converged %.0f ns", staleNs, post.Invocation.LatencyNs)
}

// TestFrozenInvocationsServeWithoutSteppingOrReopening pins degraded-mode
// semantics: frozen invocations execute from the session's current state but
// never advance adaptation and never feed staleness detection.
func TestFrozenInvocationsServeWithoutSteppingOrReopening(t *testing.T) {
	eng := newEngine(t)
	c := New(eng, Config{Staleness: true})
	fp := Fingerprint("test-db", "tpch:q6")
	frozen := func() *Result {
		t.Helper()
		r, err := c.InvokeTenantFrozen("", fp, "tpch:q6", q6(), exec.JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Frozen while adapting: the serial plan executes, the session does not
	// step — run index stays at -1 (no adaptive run has happened).
	for i := 0; i < 3; i++ {
		r := frozen()
		if !r.Invocation.Frozen {
			t.Fatalf("frozen invocation %d not marked frozen", i)
		}
		if r.Invocation.Run != -1 {
			t.Fatalf("frozen invocation %d advanced adaptation to run %d", i, r.Invocation.Run)
		}
	}

	// Thaw and converge normally.
	var r *Result
	for i := 0; i < 400; i++ {
		var err error
		if r, err = c.InvokeTenant("", fp, "tpch:q6", q6(), exec.JobOptions{}); err != nil {
			t.Fatal(err)
		}
		if r.Invocation.Converged {
			break
		}
	}
	if !r.Invocation.Converged {
		t.Fatal("session never converged")
	}

	// Frozen after convergence on a faulted machine: serving latencies blow
	// out, but frozen invocations must not trip staleness detection.
	eng.Machine().InjectFault(sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 0, Count: 16})
	eng.Machine().InjectFault(sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 1, Count: 12})
	for i := 0; i < 8; i++ {
		r := frozen()
		if r.Invocation.Reopened || !r.Invocation.Converged {
			t.Fatalf("frozen invocation %d reopened convergence", i)
		}
	}
	if st := c.Stats(); st.Reconvergences != 0 {
		t.Fatalf("frozen servings caused %d reconvergences", st.Reconvergences)
	}
}

// TestEvictionRacesInFlightReconvergence is the satellite race test: while a
// staleness-reopened session is re-converging on the serialized invoke path,
// another goroutine hammers the cache's concurrent surface — stats, listings,
// traces, and evictions. Evictions that land mid-invocation must defer the
// session release until the run completes (go test -race covers the file).
func TestEvictionRacesInFlightReconvergence(t *testing.T) {
	eng := newEngine(t)
	var persisted atomic.Int64
	c := New(eng, Config{
		Staleness: true,
		Persist:   func(*Entry) { persisted.Add(1) },
	})
	fp := Fingerprint("test-db", "tpch:q6")
	invoke := func() *Result {
		t.Helper()
		r, err := c.InvokeTenant("", fp, "tpch:q6", q6(), exec.JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Converge, fault, and trip the reopen deterministically first.
	var r *Result
	for i := 0; i < 400; i++ {
		if r = invoke(); r.Invocation.Converged {
			break
		}
	}
	if !r.Invocation.Converged {
		t.Fatal("session never converged")
	}
	eng.Machine().InjectFault(sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 0, Count: 16})
	eng.Machine().InjectFault(sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 1, Count: 12})
	reopened := false
	for i := 0; i < 10 && !reopened; i++ {
		reopened = invoke().Invocation.Reopened
	}
	if !reopened {
		t.Fatal("staleness never tripped")
	}

	// Now race the in-flight re-convergence against the concurrent surface.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Stats()
			c.TenantStats()
			for _, e := range c.List() {
				e.Hits()
				e.Trace()
			}
			if e := c.GetFingerprint(fp); e != nil {
				_ = e.Session.Done()
			}
			if i%7 == 6 {
				c.Evict(fp)
			}
		}
	}()
	// 150 invocations, then more until the churn has evicted at least once
	// however fast the engine makes each invocation, within a bound that
	// still fails a churn that never evicts.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 150 || (c.Stats().Evictions == 0 && i < 5000 && time.Now().Before(deadline)); i++ {
		invoke()
	}
	close(stop)
	wg.Wait()

	// The cache survived the churn coherently: the fingerprint still (or
	// again) resolves, serves, and the eviction counter shows the race
	// actually exercised evictions.
	final := invoke()
	if final.Entry == nil || final.Invocation.LatencyNs <= 0 {
		t.Fatal("cache incoherent after eviction churn")
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("churn never evicted — the race was not exercised")
	}
	if st.Entries != 1 {
		t.Fatalf("expected the single fingerprint live, got %d entries", st.Entries)
	}
	t.Logf("evictions %d, reconvergences %d, persists %d", st.Evictions, st.Reconvergences, persisted.Load())
}

// convergedQ6 converges q6 through c's invoke path and returns its entry and
// an invoke that serves it over cat (nil: the engine's own catalog).
func convergedQ6(t *testing.T, c *Cache) (*Entry, func(cat *storage.Catalog) Invocation) {
	t.Helper()
	fp := Fingerprint("test-db", "tpch:q6")
	invoke := func(cat *storage.Catalog) Invocation {
		t.Helper()
		r, err := c.InvokeTenant("", fp, "tpch:q6", q6(), exec.JobOptions{Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		return r.Invocation
	}
	for i := 0; !invoke(nil).Converged; i++ {
		if i == 400 {
			t.Fatal("session never converged")
		}
	}
	return c.GetFingerprint(fp), invoke
}

// spikeCatalog is the engine's catalog with lineitem grown fourfold: q6
// served over it runs far above the converged expectation, an out-of-band
// serving on an unchanged machine.
func spikeCatalog(t *testing.T, eng *exec.Engine) *storage.Catalog {
	t.Helper()
	cat := eng.Catalog()
	return appendTail(t, cat, "lineitem", 3*cat.MustTable("lineitem").Rows())
}

// TestStalenessForgivesIsolatedSpikes: through the cache's converged serving
// path, a single out-of-band serving (an interference spike) does not reopen
// convergence — the consecutive-serving window resets on the next in-band
// one — and staleWindow consecutive ones reopen on exactly the last.
func TestStalenessForgivesIsolatedSpikes(t *testing.T) {
	eng := newEngine(t)
	c := New(eng, Config{Staleness: true})
	e, invoke := convergedQ6(t, c)
	spike := spikeCatalog(t, eng)
	for i := 0; i < 5; i++ {
		if invoke(spike).Reopened {
			t.Fatalf("spike %d alone reopened convergence", i)
		}
		if invoke(nil).Reopened {
			t.Fatal("in-band serving reopened convergence")
		}
	}
	if !e.Session.Done() {
		t.Fatal("reopened after alternating spikes")
	}
	for i := 1; i <= staleWindow; i++ {
		if got := invoke(spike).Reopened; got != (i == staleWindow) {
			t.Fatalf("consecutive spike %d of %d: reopened %v", i, staleWindow, got)
		}
	}
	if e.Session.Done() {
		t.Fatal("session still done after the staleness reopen")
	}
	if st := c.Stats(); st.Reconvergences != 1 {
		t.Fatalf("reconvergences = %d, want 1", st.Reconvergences)
	}
}

// TestStalenessReopenEmptiesBothWindows: a staleness reopen also forgets the
// out-of-band servings the drift window holds — they measured the plan the
// reopen just stopped trusting — and an epoch bump's reopen empties both
// windows too.
func TestStalenessReopenEmptiesBothWindows(t *testing.T) {
	eng := newEngine(t)
	c := New(eng, Config{Staleness: true, Drift: true})
	e, invoke := convergedQ6(t, c)
	spike := spikeCatalog(t, eng)
	empty := func(when string) {
		t.Helper()
		if e.stale.outs != 0 || e.drift.outs != 0 {
			t.Fatalf("%s: staleness window holds %d out-of-band servings, drift window %d", when, e.stale.outs, e.drift.outs)
		}
	}
	for i := 1; i < staleWindow; i++ {
		invoke(spike)
	}
	if e.drift.outs != staleWindow-1 {
		t.Fatalf("drift window holds %d out-of-band servings, want %d", e.drift.outs, staleWindow-1)
	}
	if !invoke(spike).Reopened {
		t.Fatal("staleness did not reopen")
	}
	empty("after the staleness reopen")
	for i := 0; !invoke(nil).Converged; i++ {
		if i == 300 {
			t.Fatal("re-convergence did not halt within 300 invocations")
		}
	}
	invoke(spike)
	if e.stale.outs != 1 || e.drift.outs != 1 {
		t.Fatalf("re-converged session's windows hold %d / %d out-of-band servings, want 1 / 1", e.stale.outs, e.drift.outs)
	}
	if c.ReopenTenantForData("") != 1 {
		t.Fatal("epoch bump did not reopen the session")
	}
	empty("after the data reopen")
}

// TestBandWindowMatchesBothParentDetectors feeds identical latency sequences
// to the one bandWindow in its two deployed configurations and to reference
// copies of the two detectors it replaced — the staleness "Window
// consecutive out-of-band runs" counter and the drift "Trip of the last
// Window" ring — and asserts every trip lands on the same observation index.
// Like its callers, the harness resets the detector when a trip is acted on;
// the drift configuration is also run without resets — a trip the mix-share
// gate vetoes leaves the window sliding.
func TestBandWindowMatchesBothParentDetectors(t *testing.T) {
	const expect, band = 1000.0, 0.35
	in, out, fast := expect*1.2, expect*1.6, expect*0.5 // fast: out of band below
	rep := func(n int, vs ...float64) []float64 {
		var s []float64
		for i := 0; i < n; i++ {
			s = append(s, vs...)
		}
		return s
	}
	cat := func(parts ...[]float64) []float64 {
		var s []float64
		for _, p := range parts {
			s = append(s, p...)
		}
		return s
	}
	seqs := map[string][]float64{
		"all in band":           rep(20, in),
		"all out of band":       rep(20, out),
		"alternating":           rep(12, out, in),
		"two out, one in":       rep(8, out, out, in),
		"three out, one in":     rep(6, out, out, out, in),
		"admission interleave":  rep(4, out, out, out, in, out, out, out, out),
		"late burst":            cat(rep(9, in), rep(7, out), rep(3, in), rep(8, fast)),
		"symmetric band":        cat(rep(2, fast), rep(1, out), rep(5, fast, out)),
		"on the band edge":      rep(10, expect*(1+band)),
		"just past the edge":    rep(10, expect*(1+band)+1e-6),
		"window slides out":     cat(rep(5, out), rep(8, in), rep(5, out), rep(1, in), rep(3, out)),
		"exactly trip then in":  cat(rep(2, out), rep(1, in), rep(3, out), rep(2, in), rep(3, out)),
		"boundary of the eight": cat(rep(5, out), rep(3, in), rep(1, out), rep(7, in), rep(6, out)),
	}
	// The parent's staleness rule: a counter of consecutive out-of-band runs.
	consecutive := func(seq []float64, window int) (trips []int) {
		run := 0
		for i, ns := range seq {
			if math.Abs(ns-expect)/expect <= band {
				run = 0
				continue
			}
			if run++; run >= window {
				trips = append(trips, i)
				run = 0
			}
		}
		return trips
	}
	// The parent's drift rule: a hand-rolled ring with its own fill count.
	ring := func(seq []float64, window, trip int, reset bool) (trips []int) {
		var (
			outRing        []bool
			idx, n, outCnt int
		)
		for i, ns := range seq {
			o := math.Abs(ns-expect)/expect > band
			if outRing == nil {
				outRing = make([]bool, window)
			}
			if n == window {
				if outRing[idx] {
					outCnt--
				}
			} else {
				n++
			}
			outRing[idx] = o
			idx = (idx + 1) % window
			if o {
				outCnt++
			}
			if outCnt >= trip {
				trips = append(trips, i)
				if reset {
					outRing, idx, n, outCnt = nil, 0, 0, 0
				}
			}
		}
		return trips
	}
	shared := func(seq []float64, window, trip int, reset bool) (trips []int) {
		w := newBandWindow(band, window, trip)
		for i, ns := range seq {
			wantOut := math.Abs(ns-expect)/expect > band
			o, tripped := w.observe(ns, expect)
			if o != wantOut {
				t.Fatalf("observation %d (%.1f): out=%v, want %v", i, ns, o, wantOut)
			}
			if tripped {
				trips = append(trips, i)
				if reset {
					w.reset()
				}
			}
		}
		return trips
	}
	tripped := 0
	for name, seq := range seqs {
		if got, want := shared(seq, 3, 3, true), consecutive(seq, 3); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: 3/3 trips at %v, the parent's consecutive counter at %v", name, got, want)
		}
		for _, reset := range []bool{true, false} {
			got, want := shared(seq, 8, 6, reset), ring(seq, 8, 6, reset)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (reset=%v): 6/8 trips at %v, the parent's ring at %v", name, reset, got, want)
			}
			tripped += len(got)
		}
	}
	if tripped == 0 {
		t.Fatal("no sequence tripped the 6/8 configuration — the table proves nothing")
	}
}
