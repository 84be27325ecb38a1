package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
)

// TestSnapshotRestoreTwinEquality converges a session — cold, or converged
// again after a reopen — round-trips it through Snapshot + canonical plan
// encoding + RestoreSession on a fresh engine, and asserts the restored
// session is indistinguishable from the never-restarted twin: same
// convergence state, same report numbers and expectation, and bit-identical
// results when serving the best plan. A re-pin (a reopen in which nothing beat
// the bar) keeps its plan, history and outliers, but restore takes the last
// instance's GME as the best run and expectation: that row checks only those.
func TestSnapshotRestoreTwinEquality(t *testing.T) {
	cat := testCatalog(400_000)
	converge := func(t *testing.T, s *Session) {
		t.Helper()
		if _, err := s.Converge(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		ccfg   ConvergenceConfig
		reopen func(*Session) bool // nil: a cold convergence only
		repin  bool                // the reopened instance must not produce the best
	}{
		{"cold", DefaultConvergenceConfig(8), nil, false},
		{"data reopen", ConvergenceConfig{}, (*Session).ReopenForData, false},
		{"reopen found a better plan", DefaultConvergenceConfig(8),
			func(s *Session) bool { return s.Reopen(s.Summary().GMENs*1.01, 0) }, false},
		{"reopen re-pinned", DefaultConvergenceConfig(8),
			func(s *Session) bool { return s.Reopen(s.Summary().GMENs*0.5, 0) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engA := exec.NewEngine(cat, testMachine(), cost.Default())
			twin := NewSession(engA, selectPlan(), DefaultMutationConfig(), tc.ccfg)
			converge(t, twin)
			if tc.reopen != nil {
				runs := twin.Summary().Runs
				if !tc.reopen(twin) {
					t.Fatal("the session refused the reopen")
				}
				converge(t, twin)
				if dethroned := twin.Report().GMERun >= runs; dethroned == tc.repin {
					t.Fatalf("best run %d of %d (reopened at %d): the row needs repin=%v", twin.Report().GMERun, twin.Summary().Runs, runs, !tc.repin)
				}
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
			if !reflect.DeepEqual(ra.History, rb.History) {
				t.Fatalf("history mismatch:\n twin     %v\n restored %v", ra.History, rb.History)
			}
			if !reflect.DeepEqual(ra.Outliers, rb.Outliers) {
				t.Fatalf("outliers mismatch: twin %v restored %v", ra.Outliers, rb.Outliers)
			}
			if got, want := rb.BestPlan.String(), ra.BestPlan.String(); got != want {
				t.Fatalf("best plan mismatch:\n got:\n%s\nwant:\n%s", got, want)
			}
			if !tc.repin {
				if ra.TotalRuns != rb.TotalRuns || ra.GMERun != rb.GMERun ||
					ra.GMENs != rb.GMENs || ra.SerialNs != rb.SerialNs {
					t.Fatalf("report mismatch: twin %+v restored %+v", ra, rb)
				}
				if twin.Summary() != restored.Summary() {
					t.Fatalf("summary mismatch: twin %+v restored %+v", twin.Summary(), restored.Summary())
				}
				if twin.ExpectNs() != restored.ExpectNs() {
					t.Fatalf("expectation mismatch: twin %v restored %v", twin.ExpectNs(), restored.ExpectNs())
				}
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
		})
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

	otherHalt := *snap
	otherHalt.Halt = HaltBudget + 1
	if _, err := RestoreSession(eng, &otherHalt); err == nil {
		t.Fatal("RestoreSession accepted an unknown halt reason")
	}

	pastEnd := *snap
	pastEnd.Start = len(snap.History)
	if _, err := RestoreSession(eng, &pastEnd); err == nil {
		t.Fatal("RestoreSession accepted an instance start past the history")
	}
}

// TestRestoreRejectsOtherOutliers: a snapshot whose outlier runs differ from
// the ones its history replays to is refused, even when their count agrees.
func TestRestoreRejectsOtherOutliers(t *testing.T) {
	m := testMachine()
	m.Noise = sim.NoiseConfig{Enabled: true, Jitter: 0.03, SpikeProb: 0.05, SpikeMin: 4, SpikeMax: 10}
	m.Seed = 1
	eng := exec.NewEngine(testCatalog(400_000), m, cost.Default())
	s := NewSession(eng, selectPlan(), DefaultMutationConfig(), DefaultConvergenceConfig(8))
	if _, err := s.Converge(); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Outliers) == 0 {
		t.Fatal("noisy convergence flagged no outliers; the test needs one to edit")
	}
	if _, err := RestoreSession(eng, snap); err != nil {
		t.Fatalf("unedited snapshot: %v", err)
	}
	edited := *snap
	edited.Outliers = append([]int(nil), snap.Outliers...)
	edited.Outliers[0] += 1000
	if _, err := RestoreSession(eng, &edited); err == nil {
		t.Fatalf("RestoreSession accepted outliers %v; the history replays to %v", edited.Outliers, snap.Outliers)
	}

	// Outliers before the last instance's start are not replayed, but must
	// still be increasing attempt indices past the serial run.
	for _, earlier := range [][]int{{1}, {0}, {-3}, {1, 1}} {
		twoInstances := *snap
		twoInstances.History = append([]float64{snap.History[0], snap.History[0]}, snap.History...)
		twoInstances.Start = 2
		twoInstances.Outliers = slices.Clone(earlier)
		for _, o := range snap.Outliers {
			twoInstances.Outliers = append(twoInstances.Outliers, o+2)
		}
		_, err := RestoreSession(eng, &twoInstances)
		if valid := earlier[0] == 1 && len(earlier) == 1; (err == nil) != valid {
			t.Fatalf("earlier outliers %v: err %v", earlier, err)
		}
	}
}
