package plancache

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/store"
	"repro/internal/tpch"
)

const testDB = "tpch:sf=0.5:seed=42"

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d / m
}

func buildQ(qn int) func() (*plan.Plan, error) {
	return func() (*plan.Plan, error) { return tpch.Query(qn) }
}

func convergeFP(t *testing.T, c *Cache, fp, query string, qn int) *Result {
	t.Helper()
	var last *Result
	for i := 0; i < 600; i++ {
		r, err := c.InvokeTenant("", fp, query, buildQ(qn), exec.JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		last = r
		if r.Invocation.Converged {
			return r
		}
	}
	t.Fatalf("%s did not converge; last %+v", query, last.Invocation)
	return nil
}

func TestPersistHookFiresOnConvergenceAndEvictionOnly(t *testing.T) {
	eng := newEngine(t)
	var persisted []string
	c := New(eng, Config{Persist: func(e *Entry) {
		persisted = append(persisted, e.Fingerprint)
	}})
	fp := Fingerprint(testDB, "tpch:q6")
	convergeFP(t, c, fp, "tpch:q6", 6)
	if len(persisted) != 1 || persisted[0] != fp {
		t.Fatalf("persist after convergence: %v", persisted)
	}
	// Hot serving must not re-persist.
	for i := 0; i < 50; i++ {
		if _, err := c.InvokeTenant("", fp, "tpch:q6", q6(), exec.JobOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(persisted) != 1 {
		t.Fatalf("hot serving re-persisted: %v", persisted)
	}
	// Eviction of the converged entry persists its final state once more.
	c.Evict(fp)
	if len(persisted) != 2 {
		t.Fatalf("eviction did not persist: %v", persisted)
	}
	// An unconverged session's eviction does not persist.
	fp14 := Fingerprint(testDB, "tpch:q14")
	if _, err := c.InvokeTenant("", fp14, "tpch:q14", buildQ(14), exec.JobOptions{}); err != nil {
		t.Fatal(err)
	}
	c.Evict(fp14)
	if len(persisted) != 2 {
		t.Fatalf("unconverged eviction persisted: %v", persisted)
	}
}

// TestPersistRehydrateServeBitIdentical is the round-trip property test:
// converge sessions through a cache wired to a real store, restart the
// store, rehydrate a second cache on a fresh engine, and require serving
// that is bit-identical to the never-restarted twin with identical
// convergence state. Two queries cover both mutation shapes (q6 converges
// through basic operator splits; q14's join side exercises the medium
// exchange-union mutation).
func TestPersistRehydrateServeBitIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conv.store")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sy := store.NewSynchronizer(st.PutBatch)

	engA := newEngine(t)
	cacheA := New(engA, Config{})
	cacheA.cfg.Persist = func(e *Entry) {
		snap, err := e.Session.Snapshot()
		if err != nil {
			t.Errorf("snapshot %s: %v", e.Fingerprint, err)
			return
		}
		sy.Enqueue(store.NewRecord(e.Fingerprint, testDB, e.Tenant, e.Query, 0, snap, engA.Params()))
	}

	queries := map[string]int{"tpch:q6": 6, "tpch:q14": 14}
	for q, n := range queries {
		convergeFP(t, cacheA, Fingerprint(testDB, q), q, n)
	}
	if err := sy.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen the store, rehydrate a fresh cache on a fresh
	// engine over the same dataset.
	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != len(queries) {
		t.Fatalf("store has %d records, want %d", st2.Len(), len(queries))
	}
	engB := newEngine(t)
	cacheB := New(engB, Config{})
	for _, rec := range st2.Records() {
		if rec.DBIdentity != testDB {
			t.Fatalf("record %s has identity %q", rec.Fingerprint, rec.DBIdentity)
		}
		sess, err := rec.RestoreSession(engB)
		if err != nil {
			t.Fatal(err)
		}
		if cacheB.Restore(rec.Tenant, rec.Fingerprint, rec.Query, sess) == nil {
			t.Fatalf("Restore rejected record %s", rec.Fingerprint)
		}
	}
	if got := cacheB.Stats().Rehydrated; got != int64(len(queries)) {
		t.Fatalf("Rehydrated = %d, want %d", got, len(queries))
	}

	for q, n := range queries {
		fp := Fingerprint(testDB, q)
		n := n
		// First post-restart invocation: a hit on the rehydrated session,
		// served converged.
		rB, err := cacheB.InvokeTenant("", fp, q, buildQ(n), exec.JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rB.Created || !rB.Invocation.Converged {
			t.Fatalf("%s: first post-restart invocation not served from rehydrated session: %+v", q, rB.Invocation)
		}
		rA, err := cacheA.InvokeTenant("", fp, q, buildQ(n), exec.JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Bit-identical serving.
		if !exec.ResultsEqual(rA.Values, rB.Values) {
			t.Fatalf("%s: results diverge after rehydration", q)
		}
		if rA.Invocation.DOP != rB.Invocation.DOP {
			t.Fatalf("%s: DOP diverges: twin %+v restored %+v", q, rA.Invocation, rB.Invocation)
		}
		// Steady-state latency matches exactly from the second restored
		// invocation on (the first pays the plan's one-time compilation,
		// which the twin paid during adaptation). The compare carries a
		// ulp-scale tolerance: the twin engine's virtual clock sits much
		// further along, so its makespan subtraction rounds differently.
		rA2, err := cacheA.InvokeTenant("", fp, q, buildQ(n), exec.JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rB2, err := cacheB.InvokeTenant("", fp, q, buildQ(n), exec.JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if relDiff(rA2.Invocation.LatencyNs, rB2.Invocation.LatencyNs) > 1e-9 {
			t.Fatalf("%s: steady-state latency diverges: twin %+v restored %+v", q, rA2.Invocation, rB2.Invocation)
		}
		// Identical convergence state vs the never-restarted twin.
		sA := cacheA.GetFingerprint(fp).Session
		sB := cacheB.GetFingerprint(fp).Session
		repA, repB := sA.Report(), sB.Report()
		if repA.TotalRuns != repB.TotalRuns || repA.GMERun != repB.GMERun ||
			repA.GMENs != repB.GMENs || repA.SerialNs != repB.SerialNs {
			t.Fatalf("%s: convergence state diverges: %+v vs %+v", q, repA, repB)
		}
		if !reflect.DeepEqual(repA.History, repB.History) || !reflect.DeepEqual(repA.Outliers, repB.Outliers) {
			t.Fatalf("%s: history/outliers diverge", q)
		}
		if repA.BestPlan.String() != repB.BestPlan.String() {
			t.Fatalf("%s: best plans diverge:\n%s\nvs\n%s", q, repA.BestPlan, repB.BestPlan)
		}
	}
}
