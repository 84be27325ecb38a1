package server

import (
	"testing"
)

// TestStatsExposesRecycler drives a query through a full adaptive
// convergence (the workload that exercises the engine-level buffer pool and
// arena adoption) and asserts /stats reports the per-shard
// recycler hit/miss counters by size class, plus the compile-kind split.
func TestStatsExposesRecycler(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := QueryRequest{SelectSum: &SelectSumSpec{Table: "lineitem", Column: "l_quantity", Lo: i64(1), Hi: i64(24)}}
	for i := 0; i < 600; i++ {
		qr, code := postQuery(t, ts.URL, body)
		if code != 200 {
			t.Fatalf("query status %d", code)
		}
		if qr.State == "converged" {
			break
		}
	}

	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if len(stats.PerShard) != 1 {
		t.Fatalf("expected 1 shard, got %d", len(stats.PerShard))
	}
	ps := stats.PerShard[0]

	// Arena adoption: a converging session's mutated plans start from
	// their parents' arenas; the serial plan has no parent to adopt from.
	if ps.Compile.Derived == 0 {
		t.Fatalf("no adopting compilations recorded: %+v", ps.Compile)
	}
	if ps.Compile.Full == 0 {
		t.Fatalf("no pool-fed compilations recorded (the serial plan is one): %+v", ps.Compile)
	}
	if ps.Compile.Retired == 0 {
		t.Fatalf("no retired plans recorded (every superseded mutation is one): %+v", ps.Compile)
	}

	// The recycler must have served buffers (retired plans feed mutated
	// children), with per-size-class counters that sum to the totals.
	r := ps.Recycler
	if r.BufferHits == 0 {
		t.Fatalf("recycler recorded no buffer hits over a full convergence: %+v", r)
	}
	if r.Puts == 0 {
		t.Fatalf("recycler recorded no puts: %+v", r)
	}
	if len(r.Classes) == 0 {
		t.Fatalf("recycler reported no size classes: %+v", r)
	}
	var hits, misses int64
	prevSize := 0
	for _, c := range r.Classes {
		if c.Size <= prevSize {
			t.Fatalf("size classes not ascending: %+v", r.Classes)
		}
		prevSize = c.Size
		hits += c.Hits
		misses += c.Misses
	}
	if hits != r.BufferHits || misses != r.BufferMisses {
		t.Fatalf("class counters (%d hits, %d misses) do not sum to totals (%d, %d)",
			hits, misses, r.BufferHits, r.BufferMisses)
	}
}

func i64(v int64) *int64 { return &v }
