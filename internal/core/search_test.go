package core

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
)

// drainingSession steps a session whose pack growth is capped early until a
// step reuses the previous search: the plan has stopped growing and the
// convergence budget is draining.
func drainingSession(t *testing.T, eng *exec.Engine) *Session {
	t.Helper()
	s := NewSession(eng, selectPlan(), MutationConfig{PackInputThreshold: 2}, DefaultConvergenceConfig(8))
	s.VerifyResults = true
	for s.SearchStats().Reused == 0 {
		if cont, err := s.Step(); err != nil {
			t.Fatal(err)
		} else if !cont {
			t.Fatal("converged before any step reused a search")
		}
	}
	return s
}

// stepSearches steps s with opts and reports whether the step searched
// (true) or reused the previous answer (false). Either way the answer must
// be what a fresh search on a twin mutator returns for that run.
func stepSearches(t *testing.T, s *Session, opts exec.JobOptions) bool {
	t.Helper()
	before, p := s.SearchStats(), s.Current()
	if cont, err := s.StepWith(opts); err != nil || !cont {
		t.Fatalf("step: cont=%v err=%v (the draining session must still be adapting)", cont, err)
	}
	after := s.SearchStats()
	att := s.Attempts()[len(s.Attempts())-1]
	np, mut, err := NewMutator(s.mut.Cfg).MutateMostExpensive(p, att.Profile)
	if err != nil {
		t.Fatal(err)
	}
	if np != s.Current() || mut != s.nextMut {
		t.Fatalf("the step decided %v, a fresh search %v", s.nextMut, mut)
	}
	switch {
	case after.Runs == before.Runs+1 && after.Reused == before.Reused:
		return true
	case after.Runs == before.Runs && after.Reused == before.Reused+1:
		return false
	}
	t.Fatalf("search stats went %+v -> %+v in one step", before, after)
	return false
}

// searchKeyOf is the part of a profile the mutation search reads.
func searchKeyOf(prof *exec.Profile) []searchKey {
	var m searchMemo
	m.store(nil, prof, Mutation{})
	return m.key
}

// A draining session reuses its last search only while the plan object and
// every profile input MutateMostExpensive reads are unchanged: the same plan
// object run under a smaller core budget (the event core simulates it again,
// with other durations) or over a new epoch (other Work) must search again,
// and an equal re-run must not.
func TestDrainedStepReusesOnlyAnEqualSearch(t *testing.T) {
	cat := testCatalog(400_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := drainingSession(t, eng)
	lastKey := func() []searchKey { return searchKeyOf(s.Attempts()[len(s.Attempts())-1].Profile) }

	if stepSearches(t, s, exec.JobOptions{}) {
		t.Fatal("an equal re-run of the drained plan searched again")
	}
	equal := lastKey()

	if !stepSearches(t, s, exec.JobOptions{MaxCores: 2}) {
		t.Fatal("the plan run under a smaller core budget reused the search")
	}
	if throttled := lastKey(); len(throttled) != len(equal) || throttled[0].tuplesIn != equal[0].tuplesIn {
		t.Fatal("the throttled run's profile changed more than its durations")
	}

	epoch, err := cat.DeleteTail("lineitem", 100_000)
	if err != nil {
		t.Fatal(err)
	}
	s.VerifyResults = false // the new epoch's results are not the serial run's
	if !stepSearches(t, s, exec.JobOptions{Catalog: epoch}) {
		t.Fatal("the plan run over a new epoch reused the search")
	}
	if stepSearches(t, s, exec.JobOptions{Catalog: epoch}) {
		t.Fatal("an equal re-run on the new epoch searched again")
	}
}

// The memo's key is every input the search reads, by value: the plan object,
// and each profiled op's Instr, Duration and Work.TuplesIn in profile order.
// Changing any one of them alone misses.
func TestSearchMemoKeysEveryInput(t *testing.T) {
	cat := testCatalog(400_000)
	eng := exec.NewEngine(cat, testMachine(), cost.Default())
	s := drainingSession(t, eng)
	p, prof := s.Current(), s.Attempts()[len(s.Attempts())-1].Profile
	if !s.search.matches(p, prof) {
		t.Fatal("the drained run's own profile misses the memo")
	}
	variant := func(edit func(ops []exec.OpExec)) *exec.Profile {
		cp := *prof
		cp.Ops = append([]exec.OpExec(nil), prof.Ops...)
		edit(cp.Ops)
		return &cp
	}
	if !s.search.matches(p, variant(func([]exec.OpExec) {})) {
		t.Fatal("an equal profile in another object misses the memo")
	}
	for name, edit := range map[string]func(ops []exec.OpExec){
		"instr":     func(ops []exec.OpExec) { ops[0].Instr++ },
		"duration":  func(ops []exec.OpExec) { ops[0].EndNs++ },
		"tuples in": func(ops []exec.OpExec) { ops[0].Work.TuplesIn++ },
		"order":     func(ops []exec.OpExec) { ops[0], ops[1] = ops[1], ops[0] },
	} {
		if s.search.matches(p, variant(edit)) {
			t.Errorf("a profile with another %s hits the memo", name)
		}
	}
	if s.search.matches(p.Clone(), prof) {
		t.Error("another plan object hits the memo")
	}
}
