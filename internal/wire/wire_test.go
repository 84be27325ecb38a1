package wire

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// reads names every Reader method as one read of its field.
var reads = map[string]func(r *Reader){
	"Raw":     func(r *Reader) { r.Raw(1) },
	"Byte":    func(r *Reader) { r.Byte() },
	"Bool":    func(r *Reader) { r.Bool() },
	"Uvarint": func(r *Reader) { r.Uvarint() },
	"Varint":  func(r *Reader) { r.Varint() },
	"U32":     func(r *Reader) { r.U32() },
	"I64":     func(r *Reader) { r.I64() },
	"Float64": func(r *Reader) { r.Float64() },
	"Bytes":   func(r *Reader) { r.Bytes() },
	"Str":     func(r *Reader) { r.Str() },
	"Int64LE": func(r *Reader) { r.Int64LE(1) },
}

// TestReadAtEndIsAnError: every method reading past the end of its input
// records an error, from an empty input and from one byte short of its
// field.
func TestReadAtEndIsAnError(t *testing.T) {
	full := map[string][]byte{
		"Raw":     {7},
		"Byte":    {7},
		"Bool":    {1},
		"Uvarint": binary.AppendUvarint(nil, 300),
		"Varint":  binary.AppendVarint(nil, -300),
		"U32":     binary.LittleEndian.AppendUint32(nil, 7),
		"I64":     binary.LittleEndian.AppendUint64(nil, 7),
		"Float64": AppendFloat64(nil, 1.5),
		"Bytes":   AppendBytes(nil, []byte("ab")),
		"Str":     AppendString(nil, "ab"),
		"Int64LE": AppendInt64LE(nil, []int64{7}),
	}
	for name, read := range reads {
		for _, in := range [][]byte{nil, full[name][:len(full[name])-1]} {
			r := NewReader(in)
			read(r)
			if r.Err() == nil {
				t.Errorf("%s over %d of %d bytes: no error", name, len(in), len(full[name]))
			}
		}
		r := NewReader(full[name])
		read(r)
		if r.Err() != nil || r.Len() != 0 {
			t.Errorf("%s over its whole field: err %v, %d bytes left", name, r.Err(), r.Len())
		}
	}
}

// TestErrorIsSticky: after one failed read every read returns a zero value,
// consumes nothing and keeps the first error.
func TestErrorIsSticky(t *testing.T) {
	r := NewReader([]byte{2, 1, 0xff, 0xff, 0xff, 0xff})
	if r.Bool() || r.Err() == nil {
		t.Fatal("bool byte 2 read without error")
	}
	first := r.Err()
	for name, read := range reads {
		read(r)
		if r.Err() != first || r.Len() != 5 {
			t.Fatalf("%s after an error: err %v, %d bytes left", name, r.Err(), r.Len())
		}
	}
	if r.U32() != 0 || r.Byte() != 0 || r.Raw(1) != nil {
		t.Fatal("a read after an error returned data")
	}
	r.Failf("second")
	if r.Err() != first {
		t.Fatalf("Failf replaced the first error: %v", r.Err())
	}
}

// TestVarintsAreCanonical: a padded varint (a zero final byte after the
// first) and one overflowing 64 bits are refused; the shortest encoding of
// every edge value reads back.
func TestVarintsAreCanonical(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, math.MaxUint32, math.MaxUint64} {
		r := NewReader(binary.AppendUvarint(nil, v))
		if got := r.Uvarint(); got != v || r.Err() != nil || r.Len() != 0 {
			t.Errorf("Uvarint(%d) = %d, err %v", v, got, r.Err())
		}
	}
	for _, v := range []int64{0, -1, 63, -64, math.MinInt64, math.MaxInt64} {
		r := NewReader(binary.AppendVarint(nil, v))
		if got := r.Varint(); got != v || r.Err() != nil || r.Len() != 0 {
			t.Errorf("Varint(%d) = %d, err %v", v, got, r.Err())
		}
	}
	bad := map[string][]byte{
		"padded zero":        {0x80, 0x00},
		"padded one":         {0x81, 0x80, 0x00},
		"overlong 11 bytes":  {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"overflowing 64 bit": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"unterminated":       {0x80, 0x80},
	}
	for name, in := range bad {
		for _, kind := range []string{"Uvarint", "Varint", "Bytes"} {
			r := NewReader(in)
			reads[kind](r)
			if r.Err() == nil {
				t.Errorf("%s of %s %x: no error", kind, name, in)
			}
		}
	}
	r := NewReader([]byte{0x80, 0x00})
	r.Uvarint()
	if !strings.Contains(r.Err().Error(), "padded") {
		t.Errorf("padded varint error does not say so: %v", r.Err())
	}
}

// TestAppendRoundTrip: every Append helper writes what its Reader method
// reads back, and a length prefix past the input is refused.
func TestAppendRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendBytes(buf, []byte{1, 2, 3})
	buf = AppendBytes(buf, nil)
	buf = AppendString(buf, "plan")
	buf = AppendBool(AppendBool(buf, true), false)
	buf = AppendFloat64(buf, math.Inf(-1))
	buf = AppendInt64LE(buf, []int64{math.MinInt64, -1, 42})
	r := NewReader(buf)
	if b := r.Bytes(); string(b) != "\x01\x02\x03" {
		t.Fatalf("Bytes = %v", b)
	}
	if b := r.Bytes(); b != nil {
		t.Fatalf("empty Bytes = %#v, want nil", b)
	}
	if s := r.Str(); s != "plan" {
		t.Fatalf("Str = %q", s)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool pair did not read true, false")
	}
	if f := r.Float64(); !math.IsInf(f, -1) {
		t.Fatalf("Float64 = %v", f)
	}
	if v := r.Int64LE(3); len(v) != 3 || v[0] != math.MinInt64 || v[1] != -1 || v[2] != 42 {
		t.Fatalf("Int64LE = %v", v)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("after the round trip: err %v, %d bytes left", r.Err(), r.Len())
	}
	for _, in := range [][]byte{{5, 'a'}, binary.AppendUvarint(nil, math.MaxUint64)} {
		r := NewReader(in)
		if r.Str(); r.Err() == nil {
			t.Errorf("Str with length prefix %x past the input: no error", in)
		}
	}
	if r := NewReader(make([]byte, 16)); r.Int64LE(3) != nil || r.Err() == nil {
		t.Error("Int64LE(3) over 16 bytes: no error")
	}
}
