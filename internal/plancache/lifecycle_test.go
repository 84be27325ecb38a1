package plancache

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// appendTail grows table by n rows recycling its own values, so the append is
// schema-correct for any table.
func appendTail(t *testing.T, cat *storage.Catalog, table string, n int) *storage.Catalog {
	t.Helper()
	tab := cat.MustTable(table)
	cols := map[string]storage.ColumnAppend{}
	for _, name := range tab.ColumnNames() {
		col := tab.MustColumn(name)
		if col.Data().IsString() {
			vals := make([]string, n)
			for i := range vals {
				vals[i] = col.Data().StringAt((i * 7) % col.Len())
			}
			cols[name] = storage.ColumnAppend{Strs: vals}
		} else {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = col.At((i * 7) % col.Len())
			}
			cols[name] = storage.ColumnAppend{Ints: vals}
		}
	}
	ncat, err := cat.AppendRows(table, cols)
	if err != nil {
		t.Fatal(err)
	}
	return ncat
}

// TestReopenTenantForData: an epoch bump reopens only the bumped tenant's
// sessions; they re-converge warm against the new catalog and results match
// a fresh serial execution on the mutated data.
func TestReopenTenantForData(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.5, Seed: 42})
	eng := exec.NewEngine(cat, sim.TwoSocket(), cost.Default())
	c := New(eng, Config{Staleness: true})
	fpA := Fingerprint("db-a", "tpch:q6")
	fpB := Fingerprint("db-b", "tpch:q6")
	for i := 0; i < 400; i++ {
		if _, err := c.InvokeTenant("a", fpA, "tpch:q6", q6(), exec.JobOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.InvokeTenant("b", fpB, "tpch:q6", q6(), exec.JobOptions{}); err != nil {
			t.Fatal(err)
		}
		if c.GetFingerprint(fpA).Session.Done() && c.GetFingerprint(fpB).Session.Done() {
			break
		}
	}
	if !c.GetFingerprint(fpA).Session.Done() || !c.GetFingerprint(fpB).Session.Done() {
		t.Fatal("sessions did not converge")
	}

	ncat := appendTail(t, cat, "lineitem", 50_000)
	if reopened := c.ReopenTenantForData("a"); reopened != 1 {
		t.Fatalf("reopened=%d, want 1", reopened)
	}
	if c.GetFingerprint(fpA).Session.Done() {
		t.Fatal("tenant a session still done after epoch bump")
	}
	if !c.GetFingerprint(fpB).Session.Done() {
		t.Fatal("tenant b session was collaterally reopened")
	}
	if st := c.Stats(); st.DataReopens != 1 {
		t.Fatalf("Stats.DataReopens = %d, want 1", st.DataReopens)
	}

	var last *Result
	for i := 0; i < 100; i++ {
		r, err := c.InvokeTenant("a", fpA, "tpch:q6", q6(), exec.JobOptions{Catalog: ncat})
		if err != nil {
			t.Fatal(err)
		}
		last = r
		if r.Entry.Session.Done() {
			break
		}
	}
	if !c.GetFingerprint(fpA).Session.Done() {
		t.Fatal("tenant a did not re-converge warm")
	}
	want, _, err := exec.NewEngine(ncat, sim.TwoSocket(), cost.Default()).Execute(tpch.MustQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	if !exec.ResultsEqual(last.Values, want) {
		t.Fatal("post-churn results differ from serial execution on the mutated data")
	}
}

// TestEvictTenantPersistsAndPurges: the tenant-removal drain flushes the
// tenant's converged sessions through the persistence hook, releases its
// entries and mix signature, and leaves other tenants alone.
func TestEvictTenantPersistsAndPurges(t *testing.T) {
	eng := newEngine(t)
	persisted := map[string]int{}
	c := New(eng, Config{
		Drift:   true,
		Persist: func(e *Entry) { persisted[e.Tenant]++ },
	})
	fpA := Fingerprint("db-a", "tpch:q6")
	fpB := Fingerprint("db-b", "tpch:q6")
	for i := 0; i < 400; i++ {
		if _, err := c.InvokeTenant("a", fpA, "tpch:q6", q6(), exec.JobOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.InvokeTenant("b", fpB, "tpch:q6", q6(), exec.JobOptions{}); err != nil {
			t.Fatal(err)
		}
		if c.GetFingerprint(fpA).Session.Done() && c.GetFingerprint(fpB).Session.Done() {
			break
		}
	}
	base := persisted["a"] // done-transition persist

	if n := c.EvictTenant("a", true); n != 1 {
		t.Fatalf("EvictTenant removed %d entries, want 1", n)
	}
	if persisted["a"] != base+1 {
		t.Fatalf("eviction persisted %d times, want %d", persisted["a"], base+1)
	}
	if c.GetFingerprint(fpA) != nil {
		t.Fatal("tenant a entry survived eviction")
	}
	if c.GetFingerprint(fpB) == nil {
		t.Fatal("tenant b entry was collaterally evicted")
	}
	if _, ok := c.mixes["a"]; ok {
		t.Fatal("tenant a mix signature survived eviction")
	}
	if n := c.EvictTenant("a", true); n != 0 {
		t.Fatalf("second eviction removed %d entries", n)
	}
}

// TestRestoreWarmSeedsNonDoneSession: a store record whose epoch mismatches
// rehydrates as a warm seed — a non-done session Restore accepts and the
// request stream then re-converges — and counts as a warm seed, not a
// rehydration.
func TestRestoreWarmSeedsNonDoneSession(t *testing.T) {
	eng := newEngine(t)

	// Build a converged session out-of-band, snapshot, restore, reopen warm:
	// the store rehydration path for an epoch-mismatched record.
	donor := core.NewSession(eng, tpch.MustQuery(6), core.DefaultMutationConfig(), core.ConvergenceConfig{})
	if _, err := donor.Converge(); err != nil {
		t.Fatal(err)
	}
	snap, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.RestoreSession(eng, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !sess.ReopenForData() {
		t.Fatal("restored session refused data reopen")
	}

	c := New(eng, Config{})
	fp := Fingerprint("test-db", "tpch:q6")
	if e := c.Restore("", fp, "tpch:q6", sess); e == nil {
		t.Fatal("Restore rejected the warm seed")
	}
	if c.Restore("", fp, "tpch:q6", sess) != nil {
		t.Fatal("duplicate Restore succeeded")
	}
	st := c.Stats()
	if st.WarmSeeds != 1 || st.Rehydrated != 0 {
		t.Fatalf("WarmSeeds=%d Rehydrated=%d, want 1/0", st.WarmSeeds, st.Rehydrated)
	}

	// The warm seed serves immediately (cache hit) and re-converges on the
	// request stream in bounded runs.
	for i := 0; i < 100; i++ {
		r, err := c.InvokeTenant("", fp, "tpch:q6", q6(), exec.JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Created {
			t.Fatal("warm seed missed — invocation created a new session")
		}
		if r.Entry.Session.Done() {
			return
		}
	}
	t.Fatal("warm seed did not re-converge within 100 runs")
}

// TestRestoredSessionsAreWatched: a session the cache did not create — one
// rehydrated converged and one warm-seeded and then re-converged on the
// request stream, both through Restore — is watched by the cache's Staleness
// and Drift switches exactly like one it created, and a cache with the
// switch off reopens nothing on the same servings. Staleness sees a core-loss
// fault; drift sees each query's tenant mix rotate to three q14 per q6
// serving, q6 under a 2-core budget.
func TestRestoredSessionsAreWatched(t *testing.T) {
	// restore puts two converged q6 sessions of one donor into c, under
	// tenants "hot" and "warm", and returns their fingerprints.
	restore := func(t *testing.T, eng *exec.Engine, c *Cache) (fps, tenants [2]string) {
		t.Helper()
		donor := core.NewSession(eng, tpch.MustQuery(6), core.DefaultMutationConfig(), core.ConvergenceConfig{})
		if _, err := donor.Converge(); err != nil {
			t.Fatal(err)
		}
		snap, err := donor.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		tenants = [2]string{"hot", "warm"}
		for i, tn := range tenants {
			fps[i] = Fingerprint(tn, "tpch:q6")
			own := *snap
			own.BestPlan = snap.BestPlan.Clone() // one plan object per session
			sess, err := core.RestoreSession(eng, &own)
			if err != nil {
				t.Fatal(err)
			}
			if tn == "warm" && !sess.ReopenForData() {
				t.Fatal("restored session refused data reopen")
			}
			if c.Restore(tn, fps[i], "tpch:q6", sess) == nil {
				t.Fatalf("Restore rejected the %s session", tn)
			}
			for n := 0; !sess.Done(); n++ {
				if n == 100 {
					t.Fatal("warm seed did not re-converge in 100 invocations")
				}
				if _, err := c.InvokeTenant(tn, fps[i], "tpch:q6", q6(), exec.JobOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st := c.Stats(); st.Rehydrated != 1 || st.WarmSeeds != 1 {
			t.Fatalf("Rehydrated=%d WarmSeeds=%d, want 1/1", st.Rehydrated, st.WarmSeeds)
		}
		return fps, tenants
	}
	invoke := func(t *testing.T, c *Cache, tenant, fp, query string, build func() (*plan.Plan, error), maxCores int) Invocation {
		t.Helper()
		r, err := c.InvokeTenant(tenant, fp, query, build, exec.JobOptions{MaxCores: maxCores})
		if err != nil {
			t.Fatal(err)
		}
		return r.Invocation
	}
	// watched is how many of the two sessions a switch reopens.
	watched := func(armed bool) int64 {
		if armed {
			return 2
		}
		return 0
	}
	for _, armed := range []bool{true, false} {
		t.Run(fmt.Sprintf("staleness/armed=%v", armed), func(t *testing.T) {
			eng := newEngine(t)
			c := New(eng, Config{Staleness: armed})
			fps, tenants := restore(t, eng, c)
			eng.Machine().InjectFault(sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 0, Count: 16})
			eng.Machine().InjectFault(sim.FaultEvent{Kind: sim.FaultCoreLoss, Socket: 1, Count: 12})
			for i, fp := range fps {
				reopened := false
				for n := 0; n < 10 && !reopened; n++ {
					reopened = invoke(t, c, tenants[i], fp, "tpch:q6", q6(), 0).Reopened
				}
				if reopened != armed {
					t.Fatalf("%s session: reopened %v in 10 post-fault servings, want %v", tenants[i], reopened, armed)
				}
			}
			if got := c.Stats().Reconvergences; got != watched(armed) {
				t.Fatalf("reconvergences = %d, want %d", got, watched(armed))
			}
		})
		t.Run(fmt.Sprintf("drift/armed=%v", armed), func(t *testing.T) {
			eng := newEngine(t)
			c := New(eng, Config{Drift: armed})
			fps, tenants := restore(t, eng, c)
			for i, fp := range fps {
				// One full-budget serving records the mix as it stands (the
				// restored session converged outside this cache).
				invoke(t, c, tenants[i], fp, "tpch:q6", q6(), 0)
				fp14 := Fingerprint(tenants[i], "tpch:q14")
				drifted := false
				for n := 0; n < 40 && !drifted; n++ {
					for j := 0; j < 3; j++ {
						invoke(t, c, tenants[i], fp14, "tpch:q14", q14(), 0)
					}
					drifted = invoke(t, c, tenants[i], fp, "tpch:q6", q6(), 2).DriftReopened
				}
				if drifted != armed {
					t.Fatalf("%s session: drift reopened %v in 40 rotated rounds, want %v", tenants[i], drifted, armed)
				}
			}
			if got := c.Stats().DriftReopens; got != watched(armed) {
				t.Fatalf("drift reopens = %d, want %d", got, watched(armed))
			}
		})
	}
}
