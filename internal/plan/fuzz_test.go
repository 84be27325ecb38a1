package plan_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

// FuzzDecodePlan feeds plan.Decode — the parser behind store records,
// /admin/import and federation replication — hostile bytes. It must never
// panic, and whatever it accepts must be canonical: one plan, one byte
// string, so re-encoding reproduces the input exactly (content-keyed dedupe
// and bit-identical export/import rest on that). Seeds are the encodings of
// every named query plus one plan adaptation converged to, which carries the
// partitions, comments and packs a serial plan never has. External test
// package: tpch, tpcds and core import plan.
func FuzzDecodePlan(f *testing.F) {
	for _, n := range tpch.QueryNumbers() {
		f.Add(plan.Encode(tpch.MustQuery(n)))
	}
	for _, n := range tpcds.QueryNumbers() {
		f.Add(plan.Encode(tpcds.MustQuery(n)))
	}
	eng := exec.NewEngine(tpch.Generate(tpch.Config{SF: 0.01, Seed: 7}), sim.TwoSocket(), cost.Default())
	sess := core.NewSession(eng, tpch.MustQuery(6), core.MutationConfig{}, core.ConvergenceConfig{})
	for i := 0; i < 2000 && !sess.Done(); i++ {
		if _, err := sess.Step(); err != nil {
			f.Fatal(err)
		}
	}
	if !sess.Done() {
		f.Fatal("seed session did not converge")
	}
	f.Add(plan.Encode(sess.Best()))
	// An empty plan whose variable count is a padded varint: decodes to the
	// same plan as "\x00", so it must be rejected.
	f.Add([]byte("APQP\x02\x80\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := plan.Decode(data)
		if err != nil {
			return
		}
		if re := plan.Encode(p); !bytes.Equal(re, data) {
			t.Fatalf("decode accepted a non-canonical encoding: %d bytes in, %d bytes re-encoded", len(data), len(re))
		}
	})
}
