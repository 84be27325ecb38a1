package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"

	apq "repro"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
)

// oracle holds what the harness knows independently of the daemon: its own
// copy of the generated dataset, the rows the writer appends, and from those
// the exact reply every select_sum / select_rows request must carry in
// either data state — 0 is the table as generated, 1 is with the writer's
// rows appended. The writer alternates append and truncate of the same rows,
// so the dataset is only ever in one of the two.
//
// Named TPC-H queries have no closed form here; their adaptive reply is
// compared value-for-value with the serial-mode reply taken at the same data
// epoch, which is the repository's load-bearing invariant.
type oracle struct {
	cat      *storage.Catalog
	mutTable string
	extra    map[string]storage.ColumnAppend
	serial   map[int][]exec.Value // named query → serial reply, state 0
	fault    bool                 // test hook: expect wrong values
}

// faultEnv names the test hook that makes every expectation wrong, proving
// that a wrong value fails the run. It is read nowhere outside bench/.
const faultEnv = "BENCH_FAULT_WRONG_EXPECTED"

func newOracle(w *workload, seed int64) *oracle {
	o := &oracle{
		cat:      apq.LoadTPCH(w.SF, seed).Catalog(),
		mutTable: w.MutTable,
		extra:    map[string]storage.ColumnAppend{},
		serial:   map[int][]exec.Value{},
		fault:    os.Getenv(faultEnv) != "",
	}
	// The appended rows are copies of seed-chosen existing rows, so every
	// value stays inside its column's domain (and its dictionary).
	t := o.cat.MustTable(w.MutTable)
	rng := rand.New(rand.NewSource(seed))
	pick := make([]int, mutRows)
	for i := range pick {
		pick[i] = rng.Intn(t.Rows())
	}
	for _, name := range t.ColumnNames() {
		col := t.MustColumn(name)
		var a storage.ColumnAppend
		for _, r := range pick {
			if d := col.Dict(); d != nil {
				a.Strs = append(a.Strs, d.Value(col.At(r)))
			} else {
				a.Ints = append(a.Ints, col.At(r))
			}
		}
		o.extra[name] = a
	}
	return o
}

// appendBody and truncateBody are the writer's two requests.
func (o *oracle) appendBody() []byte {
	type colSpec struct {
		Ints []int64  `json:"ints,omitempty"`
		Strs []string `json:"strs,omitempty"`
	}
	cols := map[string]colSpec{}
	for name, a := range o.extra {
		cols[name] = colSpec{Ints: a.Ints, Strs: a.Strs}
	}
	b, err := json.Marshal(map[string]any{"table": o.mutTable, "columns": cols})
	if err != nil {
		panic(err)
	}
	return b
}

func (o *oracle) truncateBody() []byte {
	return []byte(fmt.Sprintf(`{"table":%q,"rows":%d}`, o.mutTable, mutRows))
}

// expected computes a select query's reply in data state s: over the column
// as generated, then over the writer's rows when they are in the table.
func (o *oracle) expected(q query, s int) (sum int64, rows []int64) {
	parts := [][]int64{o.cat.MustTable(q.Table).MustColumn(q.Column).Values()}
	if s == 1 && q.Table == o.mutTable {
		parts = append(parts, o.extra[q.Column].Ints)
	}
	for _, vals := range parts {
		for _, v := range vals {
			if v >= q.Lo && v <= q.Hi {
				sum += v
				if q.Rows {
					rows = append(rows, v)
				}
			}
		}
	}
	if o.fault {
		sum++
		rows = append(rows, 0)
	}
	return sum, rows
}

// check decodes an APQRESULT reply to q and compares it with what the
// harness expects in any of the given data states. A request that raced a
// mutation passes both states; one that did not passes exactly one.
func (o *oracle) check(q query, reply []byte, states ...int) error {
	p, err := apq.DecodeResult(reply)
	if err != nil {
		return fmt.Errorf("%s: undecodable reply: %w", q, err)
	}
	if q.Num != 0 {
		want, ok := o.serial[q.Num]
		if !ok {
			return fmt.Errorf("%s: no serial reply recorded", q)
		}
		if o.fault || !exec.ResultsEqual(p.Values, want) {
			return fmt.Errorf("%s: adaptive reply differs from the serial-mode reply", q)
		}
		return nil
	}
	if len(p.Values) != 1 {
		return fmt.Errorf("%s: %d result values, want 1", q, len(p.Values))
	}
	got := p.Values[0]
	for _, s := range states {
		sum, rows := o.expected(q, s)
		switch {
		case !q.Rows && got.Kind == plan.KindScalar && got.Scalar == sum:
			return nil
		case q.Rows && got.Kind == plan.KindColumn && equalInts(got.Col.Values(), rows):
			return nil
		}
	}
	return fmt.Errorf("%s: reply %s matches no expected value for data state %v", q, got, states)
}

// recordSerial keeps a named query's serial-mode reply as the expectation
// for its adaptive replies until the data next changes.
func (o *oracle) recordSerial(q query, reply []byte) error {
	p, err := apq.DecodeResult(reply)
	if err != nil {
		return fmt.Errorf("%s serial: undecodable reply: %w", q, err)
	}
	if len(p.Values) == 0 {
		return errors.New(q.String() + " serial: empty result")
	}
	o.serial[q.Num] = p.Values
	return nil
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
