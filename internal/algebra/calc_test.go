package algebra

import (
	"testing"
	"testing/quick"

	"repro/internal/storage"
	"repro/internal/vec"
)

func TestCalcVV(t *testing.T) {
	a := col(10, 20, 30)
	b := col(1, 2, 3)
	sum, w := calcVV(CalcAdd, a, b)
	if sum.At(0) != 11 || sum.At(2) != 33 {
		t.Fatalf("add = %v", sum.Values())
	}
	if w.TuplesOut != 3 {
		t.Fatalf("work = %+v", w)
	}
	if d, _ := calcVV(CalcSub, a, b); d.At(1) != 18 {
		t.Fatalf("sub wrong")
	}
	if p, _ := calcVV(CalcMul, a, b); p.At(2) != 90 {
		t.Fatalf("mul wrong")
	}
	if q, _ := calcVV(CalcDiv, a, b); q.At(1) != 10 {
		t.Fatalf("div wrong")
	}
}

func TestCalcDivByZeroYieldsZero(t *testing.T) {
	q, _ := calcVV(CalcDiv, col(5), col(0))
	if q.At(0) != 0 {
		t.Fatalf("5/0 = %d, want 0 (nil convention)", q.At(0))
	}
}

func TestCalcVVMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	calcVV(CalcAdd, col(1), col(1, 2))
}

func TestCalcSV(t *testing.T) {
	v := col(10, 20)
	// scalar - v
	l, _ := calcSV(CalcSub, 100, v, true)
	if l.At(0) != 90 || l.At(1) != 80 {
		t.Fatalf("scalar-left = %v", l.Values())
	}
	// v - scalar
	r, _ := calcSV(CalcSub, 100, v, false)
	if r.At(0) != -90 || r.At(1) != -80 {
		t.Fatalf("scalar-right = %v", r.Values())
	}
}

// Property: partitioned CalcVV packs back to the serial result.
func TestCalcPartitionEquivalence(t *testing.T) {
	f := func(vals []int64, cutRaw uint8) bool {
		n := len(vals)
		a := storage.NewIntColumn("a", vals)
		bVals := make([]int64, n)
		for i := range bVals {
			bVals[i] = int64(i) + 1
		}
		b := storage.NewIntColumn("b", bVals)
		serial, _ := calcVV(CalcMul, a, b)
		cut := 0
		if n > 0 {
			cut = int(cutRaw) % (n + 1)
		}
		p1, _ := calcVV(CalcMul, a.View(0, cut), b.View(0, cut))
		p2, _ := calcVV(CalcMul, a.View(cut, n), b.View(cut, n))
		packed, _ := PackColumns([]*storage.Column{p1, p2})
		return vec.Equal(packed.Data(), serial.Data())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCalcOpStrings(t *testing.T) {
	if CalcAdd.String() != "+" || CalcSub.String() != "-" || CalcMul.String() != "*" || CalcDiv.String() != "/" {
		t.Fatal("calc op names wrong")
	}
}
