package core

import (
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
)

// TestSnapshotRestoreTwinEquality converges a session, round-trips it
// through Snapshot + canonical plan encoding + RestoreSession on a fresh
// engine, and asserts the restored session is indistinguishable from the
// never-restarted twin: same convergence state, same report numbers, and
// bit-identical results when serving the best plan.
func TestSnapshotRestoreTwinEquality(t *testing.T) {
	cat := testCatalog(400_000)
	engA := exec.NewEngine(cat, testMachine(), cost.Default())
	twin := NewSession(engA, selectPlan(), DefaultMutationConfig(),
		DefaultConvergenceConfig(8))
	if _, err := twin.Converge(); err != nil {
		t.Fatal(err)
	}

	snap, err := twin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip the plan through its canonical form, as the store does.
	decoded, err := plan.Decode(plan.Encode(snap.BestPlan))
	if err != nil {
		t.Fatal(err)
	}
	snap.BestPlan = decoded

	engB := exec.NewEngine(cat, testMachine(), cost.Default())
	restored, err := RestoreSession(engB, snap)
	if err != nil {
		t.Fatal(err)
	}

	if !restored.Done() {
		t.Fatal("restored session is not Done")
	}
	ra, rb := twin.Report(), restored.Report()
	if ra.TotalRuns != rb.TotalRuns || ra.GMERun != rb.GMERun ||
		ra.GMENs != rb.GMENs || ra.SerialNs != rb.SerialNs {
		t.Fatalf("report mismatch: twin %+v restored %+v", ra, rb)
	}
	if !reflect.DeepEqual(ra.History, rb.History) {
		t.Fatalf("history mismatch:\n twin     %v\n restored %v", ra.History, rb.History)
	}
	if !reflect.DeepEqual(ra.Outliers, rb.Outliers) {
		t.Fatalf("outliers mismatch: twin %v restored %v", ra.Outliers, rb.Outliers)
	}
	if got, want := rb.BestPlan.String(), ra.BestPlan.String(); got != want {
		t.Fatalf("best plan mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	if twin.Summary() != restored.Summary() {
		t.Fatalf("summary mismatch: twin %+v restored %+v", twin.Summary(), restored.Summary())
	}

	// Serving: both best plans execute and agree bit-for-bit.
	resA, _, err := engA.Execute(twin.Best())
	if err != nil {
		t.Fatal(err)
	}
	resB, _, err := engB.Execute(restored.Best())
	if err != nil {
		t.Fatal(err)
	}
	if !exec.ResultsEqual(resA, resB) {
		t.Fatalf("results diverge: %v vs %v", resA, resB)
	}
}

func TestSnapshotRejectsUnconverged(t *testing.T) {
	cat := testCatalog(100_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(),
		DefaultConvergenceConfig(4))
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("Snapshot accepted an unconverged session")
	}
}

func TestRestoreRejectsCorruptHistory(t *testing.T) {
	cat := testCatalog(200_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(),
		DefaultConvergenceConfig(4))
	if _, err := s.Converge(); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	truncated := *snap
	truncated.History = snap.History[:1]
	if _, err := RestoreSession(eng, &truncated); err == nil {
		t.Fatal("RestoreSession accepted a truncated history")
	}

	empty := *snap
	empty.History = nil
	if _, err := RestoreSession(eng, &empty); err == nil {
		t.Fatal("RestoreSession accepted an empty history")
	}

	noPlan := *snap
	noPlan.BestPlan = nil
	if _, err := RestoreSession(eng, &noPlan); err == nil {
		t.Fatal("RestoreSession accepted a snapshot without a plan")
	}
}
