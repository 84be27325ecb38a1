package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/sim"
)

// TestStalenessDetectsCoreLossAndReconverges is the acceptance path: a
// session converges, three quarters of the machine's cores are lost
// mid-flight, staleness
// detection trips after staleWindow consecutive out-of-band serving runs, the
// session re-converges on the shrunken machine, and the re-converged
// steady state beats continuing on the stale plan.
func TestStalenessDetectsCoreLossAndReconverges(t *testing.T) {
	cat := testCatalog(400_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(), DefaultConvergenceConfig(8))
	s.VerifyResults = true
	if _, err := s.Converge(); err != nil {
		t.Fatal(err)
	}

	serveBest := func() float64 {
		_, prof, err := eng.ExecuteOpts(s.Best(), exec.JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return prof.Makespan()
	}
	preNs := serveBest()
	if s.ObserveServed(preNs) || !s.Done() {
		t.Fatal("in-band serving run tripped staleness detection")
	}

	// Lose all of socket 1 and half of socket 0 — 12 of 16 cores — mid-run.
	// Losing socket 1 alone leaves the bounded re-exploration a few percent
	// at best to win back, and it may re-pin the stale plan; here the
	// re-converged plan wins by ~14 %.
	eng.Machine().InjectFault(sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 1, Count: 8})
	eng.Machine().InjectFault(sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 0, Count: 4})

	var staleNs float64
	trips := 0
	for i := 0; i < 10 && s.Done(); i++ {
		staleNs = serveBest()
		trips++
		if s.ObserveServed(staleNs) {
			break
		}
	}
	if s.Done() {
		t.Fatalf("staleness never tripped in %d post-fault servings (stale %.0f vs pre %.0f)", trips, staleNs, preNs)
	}
	if trips != staleWindow {
		t.Fatalf("reopened after %d servings, want the %d-run window", trips, staleWindow)
	}
	if staleNs < preNs*1.35 {
		t.Fatalf("core loss barely moved the stale plan: %.0f vs %.0f", staleNs, preNs)
	}

	// Re-exploration is bounded by the reopened instance sized to the 4
	// surviving cores: 4+1+6·4 = 29 runs at most.
	reqs := 0
	for !s.Done() {
		cont, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		reqs++
		if reqs > 29 {
			t.Fatalf("re-convergence did not halt within 29 runs")
		}
		if !cont {
			break
		}
	}
	postNs := serveBest()
	if postNs >= staleNs {
		t.Fatalf("re-converged plan (%.0f ns) does not beat the stale plan (%.0f ns) after core loss", postNs, staleNs)
	}
	t.Logf("pre-fault %.0f ns, stale-on-degraded %.0f ns, re-converged %.0f ns in %d runs",
		preNs, staleNs, postNs, reqs)

	// The stitched report stays coherent across the reopen.
	rep := s.Report()
	if len(rep.History) != rep.TotalRuns {
		t.Fatalf("history len %d != total runs %d", len(rep.History), rep.TotalRuns)
	}
	if rep.GMERun < 0 || rep.GMERun >= rep.TotalRuns {
		t.Fatalf("GMERun = %d of %d", rep.GMERun, rep.TotalRuns)
	}
	if rep.History[rep.GMERun] != rep.GMENs {
		t.Fatalf("GME %f != history[%d] = %f", rep.GMENs, rep.GMERun, rep.History[rep.GMERun])
	}

	// The re-converged session snapshots and restores like any converged one
	// (the persistent store is updated only on the new convergence).
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(eng, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Done() {
		t.Fatal("restored re-converged session not done")
	}
}

// TestStalenessForgivesIsolatedSpikes: a single out-of-band run (an
// interference spike) must not reopen convergence; the consecutive-run
// window resets on the next in-band run. An unconverged session ignores
// servings altogether.
func TestStalenessForgivesIsolatedSpikes(t *testing.T) {
	cat := testCatalog(200_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(), DefaultConvergenceConfig(4))
	for i := 0; i < staleWindow; i++ {
		if s.ObserveServed(1e9) {
			t.Fatal("unconverged session accepted a serving observation")
		}
	}
	if _, err := s.Converge(); err != nil {
		t.Fatal(err)
	}
	gme := s.Summary().GMENs
	for i := 0; i < 5; i++ {
		if s.ObserveServed(gme * 5) {
			t.Fatalf("spike %d alone reopened convergence", i)
		}
		if s.ObserveServed(gme) {
			t.Fatal("in-band run reopened convergence")
		}
	}
	if !s.Done() {
		t.Fatal("reopened after alternating spikes")
	}
	// Window consecutive spikes do trip it.
	for i := 0; i < staleWindow; i++ {
		s.ObserveServed(gme * 5)
	}
	if s.Done() {
		t.Fatalf("%d consecutive spikes did not reopen", staleWindow)
	}
}

// TestStalenessRepinsWhenNothingBetterExists: when re-exploration cannot
// improve on the old best (the machine did not actually change — the band
// is just absurdly tight), the session re-pins the previous best plan rather
// than serving something worse. The test builds the session's window with
// that band directly: staleness's constant band never trips on an unchanged
// machine.
func TestStalenessRepinsWhenNothingBetterExists(t *testing.T) {
	cat := testCatalog(400_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(), DefaultConvergenceConfig(8))
	if _, err := s.Converge(); err != nil {
		t.Fatal(err)
	}
	oldBest := s.Best()
	oldGME := s.Summary().GMENs
	// A 0.1% band with an unchanged machine: normal servings "look stale".
	s.staleWin = NewBandWindow(0.001, 1, 1)
	if !s.ObserveServed(oldGME * 1.01) {
		t.Fatal("tight band did not reopen")
	}
	if s.Done() {
		t.Fatal("session still done after reopen")
	}
	bound := s.Convergence().UpperBoundRuns()
	for i := 0; !s.Done() && i < bound; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Done() {
		t.Fatalf("re-convergence did not halt within the reopened instance's %d-run bound", bound)
	}
	// The machine is unchanged, so the re-converged plan must serve at least
	// as well as the old best did (same plan or an equivalent rediscovery).
	_, prof, err := eng.ExecuteOpts(s.Best(), exec.JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := prof.Makespan(); got > oldGME*1.05 {
		t.Fatalf("re-pinned plan serves at %.0f ns, old best at %.0f ns", got, oldGME)
	}
	_ = oldBest
}

// TestBandWindowMatchesBothParentDetectors feeds identical latency sequences
// to the one BandWindow in its two deployed configurations and to reference
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
		w := NewBandWindow(band, window, trip)
		for i, ns := range seq {
			wantOut := math.Abs(ns-expect)/expect > band
			o, tripped := w.Observe(ns, expect)
			if o != wantOut {
				t.Fatalf("observation %d (%.1f): out=%v, want %v", i, ns, o, wantOut)
			}
			if tripped {
				trips = append(trips, i)
				if reset {
					w.Reset()
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
