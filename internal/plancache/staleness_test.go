package plancache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/sim"
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
