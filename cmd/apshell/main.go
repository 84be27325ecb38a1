// Command apshell is a small inspection tool for the engine: it loads a
// benchmark database, runs or adapts a query, and dumps plans, convergence
// traces, DOT graphs (Figure 7) and tomographs (Figures 19/20).
//
// Usage examples:
//
//	go run ./cmd/apshell -q q14 -dump          # serial plan, MAL-style text
//	go run ./cmd/apshell -q q14 -dot           # dataflow graph (Graphviz)
//	go run ./cmd/apshell -q q14 -hp -dump      # heuristic 32-way plan
//	go run ./cmd/apshell -q q6 -converge       # adaptive trace + best plan
//	go run ./cmd/apshell -q ds3 -tomograph     # per-core timeline
package main

import (
	"flag"
	"fmt"
	"log"
	"slices"
	"strconv"
	"strings"

	apq "repro"
)

func main() {
	qname := flag.String("q", "q6", "query: q4,q6,q8,q9,q13,q14,q17,q19,q22 or ds1..ds5")
	sf := flag.Float64("sf", 2, "scale factor")
	seed := flag.Int64("seed", 42, "generator seed")
	hp := flag.Bool("hp", false, "heuristically parallelize before other actions")
	dump := flag.Bool("dump", false, "print the plan (MAL-style)")
	dot := flag.Bool("dot", false, "print the plan's dataflow graph in DOT")
	converge := flag.Bool("converge", false, "run an adaptive session and print the trace")
	tomograph := flag.Bool("tomograph", false, "execute and print the per-core timeline")
	flag.Parse()

	var (
		prefix string
		nums   []int
		load   func(sf float64, seed int64) *apq.DB
		query  func(n int) *apq.Query
	)
	name := strings.ToLower(*qname)
	switch {
	case strings.HasPrefix(name, "ds"):
		prefix, nums, load, query = "ds", apq.TPCDSQueryNumbers(), apq.LoadTPCDS, apq.TPCDSQuery
	case strings.HasPrefix(name, "q"):
		prefix, nums, load, query = "q", apq.TPCHQueryNumbers(), apq.LoadTPCH, apq.TPCHQuery
	default:
		log.Fatalf("unknown query %q", name)
	}
	n, err := strconv.Atoi(strings.TrimPrefix(name, prefix))
	if err != nil {
		log.Fatalf("bad query %q", name)
	}
	// Check before generating the database: the query constructors panic on
	// a number they do not implement.
	if !slices.Contains(nums, n) {
		impl := make([]string, len(nums))
		for i, m := range nums {
			impl[i] = prefix + strconv.Itoa(m)
		}
		log.Fatalf("query %q not implemented; implemented: %s", name, strings.Join(impl, ","))
	}
	q := query(n)

	eng := apq.NewEngine(load(*sf, *seed), apq.TwoSocketMachine())
	if *hp {
		q, err = eng.HeuristicPlan(q, 0)
		if err != nil {
			log.Fatal(err)
		}
	}

	did := false
	if *dump {
		did = true
		fmt.Print(q.String())
		st := q.Stats()
		fmt.Printf("# %d instructions, %d selects, %d joins, %d packs, DOP %d\n",
			st.Instrs, st.Selects, st.Joins, st.Packs, st.MaxDOP)
	}
	if *dot {
		did = true
		fmt.Print(q.Dot())
	}
	if *converge {
		did = true
		sess := eng.NewAdaptiveSession(q, apq.WithResultVerification())
		rep, err := sess.Converge()
		if err != nil {
			log.Fatal(err)
		}
		for i, t := range rep.History {
			mark := ""
			if i == rep.GMERun {
				mark = "  <- global minimum"
			}
			fmt.Printf("run %3d: %10.3f ms%s\n", i, t/1e6, mark)
		}
		fmt.Printf("converged: %d runs, GME %.3f ms at run %d, speedup %.2fx, best DOP %d\n",
			rep.TotalRuns, rep.GMENs/1e6, rep.GMERun, rep.Speedup(), rep.BestPlan.MaxDOP())
		q = sess.BestQuery()
	}
	if *tomograph {
		did = true
		res, err := eng.Execute(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(res.Tomograph(96))
	}
	if !did {
		res, err := eng.Execute(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("executed %s: %.3f ms, utilization %.1f%%, %d result values\n",
			name, res.MakespanNs()/1e6, res.Utilization()*100, len(res.Values))
	}
}
