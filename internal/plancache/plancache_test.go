package plancache

import (
	"reflect"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/tpch"
)

func newEngine(t *testing.T) *exec.Engine {
	t.Helper()
	cat := tpch.Generate(tpch.Config{SF: 0.5, Seed: 42})
	return exec.NewEngine(cat, sim.TwoSocket(), cost.Default())
}

func q6() func() (*plan.Plan, error) {
	return func() (*plan.Plan, error) { return tpch.Query(6) }
}

func TestFingerprintStability(t *testing.T) {
	a := Fingerprint("tpch:sf=1:seed=42", "tpch:q6")
	b := Fingerprint("tpch:sf=1:seed=42", "tpch:q6")
	if a != b {
		t.Fatalf("fingerprint not stable: %s vs %s", a, b)
	}
	if Fingerprint("tpch:sf=2:seed=42", "tpch:q6") == a {
		t.Fatal("different DB identity must change the fingerprint")
	}
	if Fingerprint("tpch:sf=1:seed=42", "tpch:q14") == a {
		t.Fatal("different query must change the fingerprint")
	}
}

func TestInvokeStepsSessionAndServesBestPlan(t *testing.T) {
	eng := newEngine(t)
	c := New(eng, Config{})
	fp := Fingerprint("test-db", "tpch:q6")

	builds := 0
	build := func() (*plan.Plan, error) {
		builds++
		return tpch.Query(6)
	}
	var first, last *Result
	for i := 0; i < 400; i++ {
		r, err := c.InvokeTenant("", fp, "tpch:q6", build, exec.JobOptions{})
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if i == 0 {
			first = r
			if !r.Created {
				t.Fatal("first invocation should create the session")
			}
		} else if r.Created {
			t.Fatalf("invocation %d re-created the session", i)
		}
		// Mutated plans must keep producing the serial plan's results.
		if !exec.ResultsEqual(first.Values, r.Values) {
			t.Fatalf("invocation %d results diverged from serial", i)
		}
		last = r
		if r.Invocation.Converged {
			break
		}
	}
	if builds != 1 {
		t.Fatalf("serial plan built %d times, want 1", builds)
	}
	if !last.Invocation.Converged {
		t.Fatal("session never converged")
	}
	rep := last.Entry.Session.Report()
	if rep.GMENs >= first.Invocation.LatencyNs {
		t.Fatalf("GME %.0fns did not improve on serial %.0fns", rep.GMENs, first.Invocation.LatencyNs)
	}
	// Converged invocations execute the cached global-minimum plan.
	r, err := c.InvokeTenant("", fp, "tpch:q6", build, exec.JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Invocation.Converged {
		t.Fatal("post-convergence invocation should report converged")
	}
	if r.Invocation.DOP != rep.BestPlan.MaxDOP() {
		t.Fatalf("served DOP %d, best plan DOP %d", r.Invocation.DOP, rep.BestPlan.MaxDOP())
	}
	if got := len(last.Entry.Trace()); got < 2 {
		t.Fatalf("trace has %d invocations", got)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits < 2 || st.Entries != 1 || st.Converged != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestMaxEntriesEvictsLRUPreferringConverged(t *testing.T) {
	eng := newEngine(t)
	c := New(eng, Config{MaxEntries: 2})
	build := func(n int) func() (*plan.Plan, error) {
		return func() (*plan.Plan, error) { return tpch.Query(n) }
	}
	// Converge q6 fully so it becomes the preferred victim.
	fp6 := Fingerprint("db", "q6")
	for i := 0; i < 400; i++ {
		r, err := c.InvokeTenant("", fp6, "q6", build(6), exec.JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Invocation.Converged {
			break
		}
	}
	if !c.GetFingerprint(fp6).Session.Done() {
		t.Fatal("q6 did not converge")
	}
	fp14 := Fingerprint("db", "q14")
	if _, err := c.InvokeTenant("", fp14, "q14", build(14), exec.JobOptions{}); err != nil {
		t.Fatal(err)
	}
	// Touch q6 so q14 is the LRU entry — but q6 is converged, so inserting a
	// third entry must still evict q6 (converged preferred over adapting).
	if _, err := c.InvokeTenant("", fp6, "q6", build(6), exec.JobOptions{}); err != nil {
		t.Fatal(err)
	}
	fp4 := Fingerprint("db", "q4")
	if _, err := c.InvokeTenant("", fp4, "q4", build(4), exec.JobOptions{}); err != nil {
		t.Fatal(err)
	}
	if c.GetFingerprint(fp6) != nil {
		t.Fatal("expected converged q6 to be evicted")
	}
	if c.GetFingerprint(fp14) == nil || c.GetFingerprint(fp4) == nil {
		t.Fatal("adapting entries should survive")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("unexpected stats after eviction: %+v", st)
	}
}

// TestTenantQuotaScopedEviction: an over-quota tenant evicts only its own
// sessions (converged preferred), while another tenant's converged session —
// the victim the tenant-blind global policy would pick — survives untouched.
func TestTenantQuotaScopedEviction(t *testing.T) {
	eng := newEngine(t)
	c := New(eng, Config{})
	c.SetTenantQuota("t1", 2)
	build := func(n int) func() (*plan.Plan, error) {
		return func() (*plan.Plan, error) { return tpch.Query(n) }
	}
	converge := func(tenant, fp, q string, n int) {
		t.Helper()
		for i := 0; i < 400; i++ {
			r, err := c.InvokeTenant(tenant, fp, q, build(n), exec.JobOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Invocation.Converged {
				return
			}
		}
		t.Fatalf("%s/%s did not converge", tenant, q)
	}

	// Tenant t2 holds a fully converged session — the globally preferred
	// victim if eviction were tenant-blind.
	fpOther := Fingerprint("db-t2", "q6")
	converge("t2", fpOther, "q6", 6)

	// t1: a converged session plus an adapting one, then a third insert
	// that pushes t1 over its quota of 2.
	fpA, fpB, fpC := Fingerprint("db-t1", "q6"), Fingerprint("db-t1", "q14"), Fingerprint("db-t1", "q4")
	converge("t1", fpA, "q6", 6)
	if _, err := c.InvokeTenant("t1", fpB, "q14", build(14), exec.JobOptions{}); err != nil {
		t.Fatal(err)
	}
	// Touch t1's converged session so it is MRU: conversion preference must
	// beat recency inside the tenant, exactly like the global policy.
	if _, err := c.InvokeTenant("t1", fpA, "q6", build(6), exec.JobOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InvokeTenant("t1", fpC, "q4", build(4), exec.JobOptions{}); err != nil {
		t.Fatal(err)
	}

	if c.GetFingerprint(fpA) != nil {
		t.Fatal("t1's converged session should be its quota-overflow victim")
	}
	if c.GetFingerprint(fpB) == nil || c.GetFingerprint(fpC) == nil {
		t.Fatal("t1's adapting sessions should survive its overflow")
	}
	if e := c.GetFingerprint(fpOther); e == nil || !e.Session.Done() {
		t.Fatal("t2's converged session must never pay for t1's overflow")
	}
	ts := c.TenantStats()
	if st := ts["t1"]; st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("t1 stats: %+v (want 2 entries, 1 eviction)", st)
	}
	if st := ts["t2"]; st.Entries != 1 || st.Evictions != 0 || st.Converged != 1 {
		t.Fatalf("t2 stats: %+v (want untouched converged session)", st)
	}
	// Global counters fold the per-tenant ones.
	if st := c.Stats(); st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("global stats: %+v", st)
	}
}

func TestThrottledInvocationsDoNotFeedConvergence(t *testing.T) {
	eng := newEngine(t)
	c := New(eng, Config{})
	fp := Fingerprint("db", "q6")

	// A throttled first invocation serves results but must not count as an
	// adaptive run: its latency reflects the 1-core budget, not the plan.
	r, err := c.InvokeTenant("", fp, "q6", q6(), exec.JobOptions{MaxCores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Invocation.Throttled || r.Invocation.Run != -1 {
		t.Fatalf("throttled invocation recorded as run %d (throttled=%v)",
			r.Invocation.Run, r.Invocation.Throttled)
	}
	if got := len(c.GetFingerprint(fp).Session.Attempts()); got != 0 {
		t.Fatalf("throttled invocation produced %d adaptive runs, want 0", got)
	}

	// Unthrottled invocations adapt; a full budget equal to the machine is
	// not throttling.
	if _, err := c.InvokeTenant("", fp, "q6", q6(), exec.JobOptions{}); err != nil {
		t.Fatal(err)
	}
	cores := eng.Machine().Config().LogicalCores()
	r, err = c.InvokeTenant("", fp, "q6", q6(), exec.JobOptions{MaxCores: cores})
	if err != nil {
		t.Fatal(err)
	}
	if r.Invocation.Throttled || r.Invocation.Run != 1 {
		t.Fatalf("full-budget invocation: run %d throttled=%v, want run 1 unthrottled",
			r.Invocation.Run, r.Invocation.Throttled)
	}
	// A throttled invocation mid-adaptation serves the current plan and
	// leaves the convergence history untouched.
	before := len(c.GetFingerprint(fp).Session.Attempts())
	r, err = c.InvokeTenant("", fp, "q6", q6(), exec.JobOptions{MaxCores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Invocation.Throttled {
		t.Fatal("2-core budget on a 32-core machine must throttle")
	}
	if got := len(c.GetFingerprint(fp).Session.Attempts()); got != before {
		t.Fatalf("throttled invocation advanced the session: %d -> %d runs", before, got)
	}
}

func TestTraceIsBounded(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.2, Seed: 42})
	eng := exec.NewEngine(cat, sim.TwoSocket(), cost.Default())
	c := New(eng, Config{})
	fp := Fingerprint("db", "q6")
	total := maxTraceInvocations + 50
	for i := 0; i < total; i++ {
		if _, err := c.InvokeTenant("", fp, "q6", q6(), exec.JobOptions{}); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	e := c.GetFingerprint(fp)
	if got := len(e.Trace()); got > maxTraceInvocations || got < maxTraceInvocations*3/4 {
		t.Fatalf("trace has %d records, want between %d and %d",
			got, maxTraceInvocations*3/4, maxTraceInvocations)
	}
	if e.Hits() != int64(total) {
		t.Fatalf("hits %d, want %d", e.Hits(), total)
	}
	// The retained window is the most recent one.
	tr := e.Trace()
	if !tr[len(tr)-1].Converged {
		t.Fatal("newest retained invocation should be from the converged phase")
	}
}

func TestFailingSessionIsEvicted(t *testing.T) {
	eng := newEngine(t)
	c := New(eng, Config{})
	fp := Fingerprint("db", "bad")
	bad := func() (*plan.Plan, error) {
		b := plan.NewBuilder()
		col := b.Bind("nosuchtable", "c")
		b.Result(b.Aggr(algebra.AggrSum, b.Fetch(b.Select(col, algebra.FullRange()), col)))
		return b.Plan(), nil
	}
	if _, err := c.InvokeTenant("", fp, "bad", bad, exec.JobOptions{}); err == nil {
		t.Fatal("expected execution error for missing table")
	}
	if c.GetFingerprint(fp) != nil {
		t.Fatal("failed session must not stay cached")
	}
	if st := c.Stats(); st.Entries != 0 || st.Evictions != 1 {
		t.Fatalf("unexpected stats after failure: %+v", st)
	}
	// The failure must not poison later queries.
	if _, err := c.InvokeTenant("", Fingerprint("db", "q6"), "q6", q6(), exec.JobOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestEvictAndList(t *testing.T) {
	eng := newEngine(t)
	c := New(eng, Config{})
	fp := Fingerprint("db", "q6")
	if _, err := c.InvokeTenant("", fp, "q6", q6(), exec.JobOptions{}); err != nil {
		t.Fatal(err)
	}
	list := c.List()
	if len(list) != 1 || list[0].ID != "s1" || list[0].Query != "q6" {
		t.Fatalf("unexpected list: %+v", list)
	}
	if c.Get("s1") == nil {
		t.Fatal("Get by id failed")
	}
	c.Evict(fp)
	if c.Get("s1") != nil || c.GetFingerprint(fp) != nil {
		t.Fatal("entry survived Evict")
	}
}

// TestStatsAddCoversEveryField: Add is written out field by field, so a
// counter added to Stats later must be added there too — every field of the
// sum of two all-distinct Stats values must be twice the operand's.
func TestStatsAddCoversEveryField(t *testing.T) {
	var o, sum Stats
	v := reflect.ValueOf(&o).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	sum.Add(o)
	sum.Add(o)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if want := int64(2 * (i + 1)); got.Field(i).Int() != want {
			t.Errorf("Stats.Add drops %s: got %d, want %d", got.Type().Field(i).Name, got.Field(i).Int(), want)
		}
	}
}
