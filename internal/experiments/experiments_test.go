package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// tiny returns a scale small enough for every experiment to run in
// milliseconds-to-a-few-seconds within the unit-test suite.
func tiny() Scale {
	return Scale{
		Name: "tiny", TPCHSF: 0.25, TPCDSSF: 2, MicroRows: 120_000,
		ConvCores: 4, ConvExtraRuns: 2, Clients: 3, Repeats: 1, Seed: 7,
	}
}

func checkTable(t *testing.T, tab *Table, err error, wantRows int, wantIn string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if wantRows > 0 && len(tab.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d\n%s", len(tab.Rows), wantRows, tab.Format())
	}
	out := tab.Format()
	if !strings.Contains(out, wantIn) {
		t.Fatalf("output missing %q:\n%s", wantIn, out)
	}
	// Every row must have at least as many cells as headers minus trailing
	// free-form columns; just check non-empty cells exist.
	for i, r := range tab.Rows {
		if len(r) == 0 || r[0] == "" {
			t.Fatalf("row %d empty", i)
		}
	}
}

func TestTable1(t *testing.T) {
	tab, err := Table1(tiny())
	checkTable(t, tab, err, 2, "E5-2650")
}

func TestTable4(t *testing.T) {
	tab, err := Table4(tiny())
	checkTable(t, tab, err, 2, "simple")
}

func TestFigure1(t *testing.T) {
	tab, err := Figure1(tiny())
	checkTable(t, tab, err, 3, "Q9")
	// Saturated load: all latencies positive.
	for _, r := range tab.Rows {
		for _, c := range r[1:] {
			if c == "0.000" {
				t.Fatalf("zero latency under load: %v", r)
			}
		}
	}
}

func TestFigure8(t *testing.T) {
	tab, err := Figure8(tiny())
	checkTable(t, tab, err, 4, "[0/4,1/4)")
}

func TestFigure11(t *testing.T) {
	// Heavy noise at tiny scale can abort adaptation after the very first
	// parallel run (a spiked run above serial drains the starting credit);
	// use a larger budget so the trace shows real structure.
	s := tiny()
	s.ConvCores = 8
	s.ConvExtraRuns = 4
	s.MicroRows = 500_000 // large enough that the first split clearly wins
	tab, err := Figure11(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5 {
		t.Fatalf("convergence trace too short: %d runs\n%s", len(tab.Rows), tab.Format())
	}
	if !strings.Contains(tab.Format(), "converged after") {
		t.Fatal("missing convergence summary")
	}
}

func TestFigure12(t *testing.T) {
	tab, err := Figure12(tiny())
	checkTable(t, tab, err, 5, "50")
}

func TestFigure13(t *testing.T) {
	tab, err := Figure13(tiny())
	checkTable(t, tab, err, 20, "#")
	// First-half buckets hold no matches; second half does.
	if tab.Rows[0][1] != "0" {
		t.Fatalf("first bucket has matches: %v", tab.Rows[0])
	}
	if tab.Rows[19][1] == "0" {
		t.Fatalf("last bucket empty: %v", tab.Rows[19])
	}
}

func TestFigure14(t *testing.T) {
	tab, err := Figure14(tiny())
	checkTable(t, tab, err, 6, "10GB")
}

func TestTable2(t *testing.T) {
	tab, err := Table2(tiny())
	checkTable(t, tab, err, 3, "100GB")
}

func TestFigure15(t *testing.T) {
	tab, err := Figure15(tiny())
	checkTable(t, tab, err, 3, "3200MB")
}

func TestTable3(t *testing.T) {
	tab, err := Table3(tiny())
	checkTable(t, tab, err, 3, "16MB")
}

// TestFigure16 holds §4.2.4's claims on the generated table: the Vectorwise
// comparator, whose engine prices plans with cost.Vectorwise, is slower than
// the heuristic plans it runs in isolation, and under concurrency adaptive
// beats heuristic, which beats the comparator, on every query the mix drew.
func TestFigure16(t *testing.T) {
	tab, err := Figure16(tiny())
	checkTable(t, tab, err, 9, "Q14")
	const hpIso, vwIso, hpConc, apConc, vwConc = 1, 3, 4, 5, 6
	cell := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", row[0], tab.Headers[col], err, tab.Format())
		}
		return v
	}
	drawn := 0
	for _, row := range tab.Rows {
		if hp, vw := cell(row, hpIso), cell(row, vwIso); vw <= hp {
			t.Errorf("%s: VW iso %v not above HP iso %v", row[0], vw, hp)
		}
		if row[apConc] == "-" {
			continue // the concurrent mix did not draw this query
		}
		drawn++
		if ap, hp, vw := cell(row, apConc), cell(row, hpConc), cell(row, vwConc); ap >= hp || hp >= vw {
			t.Errorf("%s: conc AP %v, HP %v, VW %v; want AP < HP < VW", row[0], ap, hp, vw)
		}
	}
	if drawn == 0 {
		t.Errorf("the concurrent mix drew no query:\n%s", tab.Format())
	}
	if t.Failed() {
		t.Log("\n" + tab.Format())
	}
}

func TestFigure17(t *testing.T) {
	tab, err := Figure17(tiny())
	checkTable(t, tab, err, 5, "Q1")
}

func TestFigure18(t *testing.T) {
	tab, err := Figure18(tiny())
	checkTable(t, tab, err, 9, "Q6")
}

func TestTable5(t *testing.T) {
	r, err := Table5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, r.Table, nil, 6, "# select operators")
	if !strings.Contains(r.APTomograph, "parallelism usage") ||
		!strings.Contains(r.HPTomograph, "parallelism usage") {
		t.Fatal("tomographs missing summary lines")
	}
}

func TestTableFormatAlignment(t *testing.T) {
	tab := &Table{
		Title:   "t",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"xxx", "y"}, {"z", "wwww"}},
		Notes:   []string{"n1"},
	}
	out := tab.Format()
	for _, want := range []string{"== t ==", "xxx", "wwww", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestScalesAreDistinct(t *testing.T) {
	q, f := Quick(), Full()
	if q.Name == f.Name || q.TPCHSF >= f.TPCHSF || q.MicroRows >= f.MicroRows {
		t.Fatal("presets not ordered")
	}
	if q.convConfig().Cores <= 0 {
		t.Fatal("bad convergence config")
	}
}

func TestSkewedColumnDeterministic(t *testing.T) {
	a := makeSkewedColumn(10_000, 30, 5)
	b := makeSkewedColumn(10_000, 30, 5)
	av := a.MustTable("skewed").MustColumn("v").Values()
	bv := b.MustTable("skewed").MustColumn("v").Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatal("skewed column generation not deterministic")
		}
	}
	matches := 0
	for _, v := range av {
		if v == 7 {
			matches++
		}
	}
	if matches != 3000 {
		t.Fatalf("matches = %d, want 30%% of 10000", matches)
	}
}

func TestJoinCatalogShape(t *testing.T) {
	cat := makeJoinCatalog(5_000, 100, 3)
	big := cat.MustTable("big")
	if big.Rows() != 5_000 {
		t.Fatalf("big rows = %d", big.Rows())
	}
	for _, v := range big.MustColumn("k").Values() {
		if v < 0 || v >= 100 {
			t.Fatalf("key %d out of inner range", v)
		}
	}
}
