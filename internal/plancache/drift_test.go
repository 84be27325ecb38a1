package plancache

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/tpch"
)

func q14() func() (*plan.Plan, error) {
	return func() (*plan.Plan, error) { return tpch.Query(14) }
}

func TestMixWindowShares(t *testing.T) {
	m := newMixWindow(4)
	if got := m.observe("a"); got != 1.0 {
		t.Fatalf("first observation share = %v, want 1", got)
	}
	m.observe("b")
	m.observe("a")
	if got := m.observe("a"); got != 0.75 {
		t.Fatalf("share = %v, want 0.75", got)
	}
	// Ring full: the oldest "a" falls out as "c" enters.
	if got := m.observe("c"); got != 0.25 {
		t.Fatalf("share(c) = %v, want 0.25", got)
	}
	if got := m.counts["a"]; got != 2 {
		t.Fatalf("count(a) = %d after eviction, want 2", got)
	}
	m.observe("c")
	m.observe("c")
	m.observe("c")
	if got := m.counts["a"]; got != 0 {
		t.Fatalf("count(a) = %d, want 0 (fully evicted)", got)
	}
}

// TestDriftDetectorReopensUnderBudget is the workload-drift acceptance path:
// a query converges as its tenant's only (unthrottled) query, the mix then
// rotates so it serves throttled under a small admission budget, and the
// drift detector — not staleness, which must skip throttled runs — reopens it
// sized to that budget. Post-reopen it re-converges and keeps serving
// correct results.
func TestDriftDetectorReopensUnderBudget(t *testing.T) {
	eng := newEngine(t)
	c := New(eng, Config{
		Staleness: true,
		Drift:     true,
	})
	fp6 := Fingerprint("test-db", "tpch:q6")
	fp14 := Fingerprint("test-db", "tpch:q14")

	var firstVals []exec.Value
	for i := 0; i < 400; i++ {
		r, err := c.InvokeTenant("", fp6, "tpch:q6", q6(), exec.JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstVals = r.Values
		}
		if r.Entry.Session.Done() {
			break
		}
	}
	e6 := c.GetFingerprint(fp6)
	if !e6.Session.Done() {
		t.Fatal("q6 did not converge")
	}
	if e6.convShare != 1.0 {
		t.Fatalf("convergence-time share = %v, want 1.0", e6.convShare)
	}

	// Rotate the mix: q14 dominates, q6 becomes a minority query served
	// under a 2-core admission budget.
	drifted := false
	budget := 2
	for i := 0; i < 200 && !drifted; i++ {
		for j := 0; j < 3; j++ {
			if _, err := c.InvokeTenant("", fp14, "tpch:q14", q14(), exec.JobOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		r, err := c.InvokeTenant("", fp6, "tpch:q6", q6(), exec.JobOptions{MaxCores: budget})
		if err != nil {
			t.Fatal(err)
		}
		if r.Invocation.Reopened {
			t.Fatal("staleness reopened on a throttled serving — must be skipped")
		}
		drifted = r.Invocation.DriftReopened
	}
	if !drifted {
		t.Fatal("drift detector never tripped")
	}
	if e6.Session.Done() {
		t.Fatal("session still done after drift reopen")
	}
	if got := e6.Session.Convergence().Config().Cores; got != budget {
		t.Fatalf("reopened instance sized to %d cores, want the observed budget %d", got, budget)
	}
	if st := c.Stats(); st.DriftReopens != 1 {
		t.Fatalf("Stats.DriftReopens = %d, want 1", st.DriftReopens)
	}

	// Re-converge under the budget; results must stay identical.
	for i := 0; i < 400 && !e6.Session.Done(); i++ {
		r, err := c.InvokeTenant("", fp6, "tpch:q6", q6(), exec.JobOptions{MaxCores: budget})
		if err != nil {
			t.Fatal(err)
		}
		if !exec.ResultsEqual(firstVals, r.Values) {
			t.Fatal("post-drift results diverge")
		}
	}
	if !e6.Session.Done() {
		t.Fatal("did not re-converge under the budget")
	}
	ts := c.TenantStats()
	if ts[""].DriftReopens != 1 {
		t.Fatalf("tenant DriftReopens = %d, want 1", ts[""].DriftReopens)
	}
}

// TestDriftIgnoresStableMix: out-of-band latency alone (mix share unchanged)
// must not trip the drift detector — that case belongs to staleness/admission,
// not workload drift.
func TestDriftIgnoresStableMix(t *testing.T) {
	eng := newEngine(t)
	c := New(eng, Config{
		Drift: true,
	})
	fp := Fingerprint("test-db", "tpch:q6")
	for i := 0; i < 400; i++ {
		r, err := c.InvokeTenant("", fp, "tpch:q6", q6(), exec.JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Entry.Session.Done() {
			break
		}
	}
	e := c.GetFingerprint(fp)
	if !e.Session.Done() {
		t.Fatal("did not converge")
	}
	// Throttled servings, far out of band — but the mix is 100% this query
	// before and after, so the share gate must hold the reopen back.
	for i := 0; i < 20; i++ {
		r, err := c.InvokeTenant("", fp, "tpch:q6", q6(), exec.JobOptions{MaxCores: 2})
		if err != nil {
			t.Fatal(err)
		}
		if r.Invocation.DriftReopened {
			t.Fatal("drift tripped without a mix change")
		}
	}
	if !e.Session.Done() {
		t.Fatal("session reopened without a mix change")
	}
}
