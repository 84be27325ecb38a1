package main

import (
	"encoding/json"
	"fmt"
)

// query is one POST /query template: a named TPC-H query, or the ad-hoc
// select_sum / select_rows shape over one column.
type query struct {
	Num           int // named TPC-H query number, or 0 for a select spec
	Table, Column string
	Lo, Hi        int64
	Rows          bool // select_rows (values returned) instead of select_sum
}

func (q query) String() string {
	switch {
	case q.Num != 0:
		return fmt.Sprintf("q%d", q.Num)
	case q.Rows:
		return fmt.Sprintf("select_rows(%s.%s,%d..%d)", q.Table, q.Column, q.Lo, q.Hi)
	default:
		return fmt.Sprintf("select_sum(%s.%s,%d..%d)", q.Table, q.Column, q.Lo, q.Hi)
	}
}

// body renders the request JSON. serial selects "mode":"serial" (the cold
// serial plan, bypassing the plan cache); results negotiates the APQRESULT
// reply so the values can be checked.
func (q query) body(serial, results bool) []byte {
	m := map[string]any{}
	if q.Num != 0 {
		m["query"] = q.Num
	} else {
		spec := map[string]any{"table": q.Table, "column": q.Column, "lo": q.Lo, "hi": q.Hi}
		if q.Rows {
			m["select_rows"] = spec
		} else {
			m["select_sum"] = spec
		}
	}
	if serial {
		m["mode"] = "serial"
	}
	if results {
		m["results"] = true
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(err) // a map of strings and ints always marshals
	}
	return b
}

// refSpec sizes one reference request: W tuples scanned, B reply bytes.
type refSpec struct{ W, B int }

func (r refSpec) path() string { return fmt.Sprintf("/ref?n=%d&bytes=%d", r.W, r.B) }

// workload is one daemon configuration plus the traffic driven at it. Every
// workload runs the same round skeleton (round.go); the table below is the
// whole difference between them.
type workload struct {
	Name, Why string
	SF        float64
	Cache     int     // apqd -cache (0 = unlimited)
	Cold      []query // converged one after another in the cold phase
	Hot       []query // measured round-robin; each is also in Cold
	Results   bool    // hot and serial legs negotiate APQRESULT replies
	// Churn puts the writer beside the reader for the whole measured phase;
	// the other workloads meet it only in the short write tail.
	Churn    bool
	MutTable string // table the writer appends to and truncates
	// ColdRefEvery sends a reference request after every n-th cold request;
	// short cold phases use 1 so the reference median still has enough
	// samples.
	ColdRefEvery int
	// RefCold and RefHot were chosen once so that the reference p50 lands
	// within 0.7–1.4× the cold-step / hot p50 at the commit that added the
	// benchmark. They are constants of the benchmark: retuning them changes
	// every *_rel baseline.
	RefCold, RefHot refSpec
}

const mutRows = 600 // rows per append / truncate

// tpchAll is spelled out rather than read from tpch.QueryNumbers(): a query
// added to the repository later must not change what this benchmark runs.
var tpchAll = []query{{Num: 4}, {Num: 6}, {Num: 8}, {Num: 9}, {Num: 13}, {Num: 14}, {Num: 17}, {Num: 19}, {Num: 22}}

var (
	scanQ  = query{Table: "lineitem", Column: "l_quantity", Lo: 1, Hi: 24}
	tinyQ  = query{Table: "part", Column: "p_size", Lo: 10, Hi: 15}
	churnQ = query{Table: "lineitem", Column: "l_quantity", Lo: 1, Hi: 5, Rows: true}
	joinQs = []query{{Num: 4}, {Num: 8}, {Num: 9}, {Num: 13}, {Num: 17}, {Num: 19}}
)

var workloads = []*workload{
	{
		Name: "scan_hot",
		Why:  "one converged 300k-row scan: algebra select/fetch/aggr is ~88% of request CPU, so kernel and real-parallel work shows here and serve-stack work should not",
		SF:   5, Cold: []query{scanQ}, Hot: []query{scanQ}, MutTable: "lineitem",
		ColdRefEvery: 1, RefCold: refSpec{W: 540_000}, RefHot: refSpec{W: 450_000},
	},
	{
		Name: "join_hot",
		Why:  "six converged TPC-H join/group plans at DOP 32-128: exec scheduling, the sim event core and join/group kernels do the work; select/fetch tweaks move it little",
		SF:   2, Cold: joinQs, Hot: joinQs, MutTable: "lineitem",
		ColdRefEvery: 4, RefCold: refSpec{W: 450_000}, RefHot: refSpec{W: 450_000},
	},
	{
		Name: "tiny_adapt",
		Why:  "tiny data: the cold phase is core mutation + plan clone/validate/diff + exec compile under -cache 1 eviction, the hot phase is all server/plancache/arena/sim fixed cost; kernels predict no change",
		SF:   0.5, Cache: 1, Cold: append(append([]query{}, tpchAll...), tinyQ), Hot: []query{tinyQ}, MutTable: "part",
		ColdRefEvery: 4, RefCold: refSpec{W: 60_000}, RefHot: refSpec{W: 0},
	},
	{
		Name: "rows_churn",
		Why:  "reads beside writes: storage copy-on-write, epoch publication through every shard lock, warm re-convergence after each epoch, chunked APQRESULT encode of ~48 KB replies",
		SF:   1, Cold: []query{churnQ}, Hot: []query{churnQ}, Results: true, Churn: true, MutTable: "lineitem",
		ColdRefEvery: 1, RefCold: refSpec{W: 50_000, B: 48_000}, RefHot: refSpec{W: 45_000, B: 48_000},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}
