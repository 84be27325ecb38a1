package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/vec"
)

// Kernel microbenchmarks. Each reports ns/tuple over a benchTuples-row view
// cut from the middle of a larger column (Seq() != 0, like every partition
// clone), so a regression names its kernel before the serving benchmark shows
// it. Run one with
//
//	go test -run '^$' -bench SelectInto -benchtime 2000x ./internal/algebra
const benchTuples = 64 << 10

var (
	benchOids []int64
	benchSum  int64
)

// benchView returns a view of benchTuples values uniform over [0,100).
func benchView() *storage.Column {
	r := rand.New(rand.NewSource(1))
	vals := make([]int64, benchTuples+2000)
	for i := range vals {
		vals[i] = r.Int63n(100)
	}
	return storage.NewIntColumn("v", vals).View(1000, 1000+benchTuples)
}

func reportPerTuple(b *testing.B, tuples int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tuples), "ns/tuple")
}

func BenchmarkSelectInto(b *testing.B) {
	col := benchView()
	for _, sel := range []int64{1, 48, 99} {
		pred := HalfOpen(0, sel)
		b.Run(fmt.Sprintf("sel=%d%%", sel), func(b *testing.B) {
			dst, _ := SelectInto(nil, col, pred)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = SelectInto(dst, col, pred)
			}
			benchOids = dst
			reportPerTuple(b, col.Len())
		})
	}
}

func BenchmarkSelectWithCandsInto(b *testing.B) {
	col := benchView()
	cands, _ := SelectInto(nil, col, AtLeast(25))
	pred := LessThan(73) // refines 75 % of the view to 48 %
	dst, _, _ := SelectWithCandsInto(nil, col, pred, cands)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _, _ = SelectWithCandsInto(dst, col, pred, cands)
	}
	benchOids = dst
	reportPerTuple(b, len(cands))
}

func BenchmarkFetchInto(b *testing.B) {
	col := benchView()
	ascending, _ := SelectInto(nil, col, LessThan(48))
	shuffled := append([]int64(nil), ascending...)
	rand.New(rand.NewSource(2)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	// Clipped: the view ends inside the ascending list, the boundary drop
	// every misaligned partition clone pays (§2.3).
	clipped := col.View(0, col.Len()/2)
	// Outside: the list lies in the view's lower half and the target is its
	// upper half, so the fetch keeps nothing.
	lower, _ := SelectInto(nil, clipped, LessThan(48))
	upper := col.View(col.Len()/2, col.Len())
	// Head-dropped: the whole list against the view's upper half, so the
	// list's lower half lies below the view (a lower-boundary drop).
	// Shuffled-clipped: the shuffled list against the view's lower half, so
	// the list changes sides of the view every few oids (a join side read
	// by partition clones).
	// Descent-last: ascending but for its last oid, so the prefix ends one
	// oid before the list does.
	descent := append([]int64(nil), ascending...)
	descent[len(descent)-1] = descent[0]
	for _, bc := range []struct {
		name   string
		oids   []int64
		target *storage.Column
	}{
		{"ascending", ascending, col},
		{"ascending-clipped", ascending, clipped},
		{"ascending-outside", lower, upper},
		{"ascending-head-dropped", ascending, upper},
		{"shuffled", shuffled, col},
		{"shuffled-clipped", shuffled, clipped},
		{"descent-last", descent, col},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dst := make([]int64, len(bc.oids))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, _, _ := FetchInto(dst, bc.oids, bc.target)
				benchSum += int64(n)
			}
			reportPerTuple(b, len(bc.oids))
		})
	}
}

func BenchmarkAggr(b *testing.B) {
	col := benchView()
	for _, f := range []AggrFunc{AggrSum, AggrCount, AggrMin, AggrMax} {
		b.Run(f.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, _ := Aggr(f, col)
				benchSum += s
			}
			reportPerTuple(b, col.Len())
		})
	}
}

func BenchmarkCalcVVInto(b *testing.B) {
	col := benchView()
	dst := make([]int64, col.Len())
	for _, op := range []CalcOp{CalcAdd, CalcMul, CalcDiv} {
		b.Run(op.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				CalcVVInto(dst, op, col, col)
			}
			benchSum += dst[0]
			reportPerTuple(b, col.Len())
		})
	}
}

// BenchmarkSelectLike separates the dictionary's LIKE memo from the code
// scan: "hit" asks a warm dictionary (what every clone after the first, and
// every hot request, pays); "miss" cycles through more patterns than the memo
// holds, so each call re-matches all 8 k strings (the old cost of every call).
func BenchmarkSelectLike(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	d := vec.NewDict()
	for i := 0; i < 8<<10; i++ {
		d.Code(fmt.Sprintf("comment %d special %d requests", r.Int63(), i%7))
	}
	codes := make([]int64, benchTuples)
	for i := range codes {
		codes[i] = r.Int63n(int64(d.Len()))
	}
	col := storage.NewColumn("s", 0, vec.NewDictCoded(codes, d)).View(1000, benchTuples)
	patterns := make([]string, 64)
	for i := range patterns {
		patterns[i] = fmt.Sprintf("special %d", i)
	}
	for _, bc := range []struct {
		name     string
		patterns []string
	}{{"hit", patterns[:1]}, {"miss", patterns}} {
		b.Run(bc.name, func(b *testing.B) {
			dst, _ := SelectLikeInto(nil, col, bc.patterns[0], LikeContains, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = SelectLikeInto(dst, col, bc.patterns[i%len(bc.patterns)], LikeContains, false)
			}
			benchOids = dst
			reportPerTuple(b, col.Len())
		})
	}
}

// benchKeys returns a foreign-key view of benchTuples values drawn uniformly
// from nKeys keys spaced stride apart, and a primary-key column holding every
// keep-th of them: stride 1 is the dense TPC-H shape; a filtered inner
// (keep > 1, where most probes miss — Q4's order keys of a date range, Q9's and
// Q17's part keys) or stride 37 takes the ranked-bitmap form, stride 2⁴⁰ the
// probing one.
func benchKeys(nKeys int, stride int64, keep int) (fk, pk *storage.Column) {
	r := rand.New(rand.NewSource(2))
	keys := make([]int64, nKeys)
	var kept []int64
	for i := range keys {
		keys[i] = int64(i) * stride
		if i%keep == 0 {
			kept = append(kept, keys[i])
		}
	}
	vals := make([]int64, benchTuples+2000)
	for i := range vals {
		vals[i] = keys[r.Intn(nKeys)]
	}
	return storage.NewIntColumn("fk", vals).View(1000, 1000+benchTuples), storage.NewIntColumn("pk", kept)
}

var benchKeyShapes = []struct {
	name   string
	nKeys  int
	stride int64
	keep   int
}{
	{"dense/300k", 300_000, 1, 1},
	{"sparse/300k", 300_000, 37, 1},
	{"filtered/30k", 30_000, 1, 25},
	{"filtered/4k", 4000, 1, 20},
	{"filtered/4k-1pct", 4000, 1, 100},
	{"dense/100", 100, 1, 1},
	{"sparse/100", 100, 1 << 40, 1},
}

func BenchmarkHashJoinInto(b *testing.B) {
	for _, s := range benchKeyShapes {
		b.Run(s.name, func(b *testing.B) {
			fk, pk := benchKeys(s.nKeys, s.stride, s.keep)
			lo, ro, _ := HashJoinInto(nil, nil, fk, pk)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo, ro, _ = HashJoinInto(lo, ro, fk, pk)
			}
			benchOids = ro
			reportPerTuple(b, fk.Len())
		})
	}
}

func BenchmarkGroupBy(b *testing.B) {
	for _, s := range benchKeyShapes {
		b.Run(s.name, func(b *testing.B) {
			fk, _ := benchKeys(s.nKeys, s.stride, s.keep)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, _ := GroupBy(fk)
				benchOids = g.GIDs
			}
			reportPerTuple(b, fk.Len())
		})
	}
}
