// Package vec provides the typed columnar payloads that every other layer of
// the engine builds on: immutable int64 value vectors (dates, decimals and
// dictionary codes are all carried as int64, mirroring MonetDB's lng-centric
// BAT tails), string dictionaries, and order-preserving concatenation used by
// the exchange-union (pack) operator.
//
// Vectors are deliberately immutable after construction: range partitioning
// in the paper (§2.3) is "creating read only slices on the base or the
// intermediate column ... no data copying involved", and immutability is what
// makes zero-copy slicing safe under simulated parallel execution.
//
// Ownership invariants: constructors take ownership of their value slice —
// the caller must not modify it afterwards — and Builder is the write-once
// bridge for shared result buffers: exchange-union clones write disjoint
// ranges of one owned buffer, and Publish freezes it into an immutable
// Vector (possibly a dense head view) that may alias the buffer forever;
// the buffer may only be recycled if the published vector never escaped to
// a query result (the executor's escape analysis enforces this).
package vec

import "fmt"

// Vector is an immutable columnar payload. When dict is non-nil the values
// are codes into the dictionary and the logical type is string; otherwise the
// values are int64 payloads (integers, fixed-point decimals, or day numbers).
type Vector struct {
	vals []int64
	dict *Dict
}

// New wraps vals in a Vector: dictionary codes when dict is non-nil, int64
// payloads otherwise. The caller must not modify vals afterwards.
func New(vals []int64, dict *Dict) *Vector {
	return &Vector{vals: vals, dict: dict}
}

// NewInt64 wraps vals in a Vector. The caller must not modify vals afterwards.
func NewInt64(vals []int64) *Vector {
	return &Vector{vals: vals}
}

// NewDictCoded wraps dictionary codes in a Vector bound to dict. The caller
// must not modify vals afterwards.
func NewDictCoded(vals []int64, dict *Dict) *Vector {
	if dict == nil {
		panic("vec: NewDictCoded requires a dictionary")
	}
	return &Vector{vals: vals, dict: dict}
}

// Len reports the number of values.
func (v *Vector) Len() int { return len(v.vals) }

// At returns the value at position i.
func (v *Vector) At(i int) int64 { return v.vals[i] }

// Values exposes the backing slice for read-only scans. Callers must treat
// the returned slice as immutable.
func (v *Vector) Values() []int64 { return v.vals }

// Dict returns the dictionary for string-typed vectors, or nil.
func (v *Vector) Dict() *Dict { return v.dict }

// IsString reports whether the vector carries dictionary-coded strings.
func (v *Vector) IsString() bool { return v.dict != nil }

// Slice returns a zero-copy view of positions [lo, hi). It shares the
// backing array with the receiver.
func (v *Vector) Slice(lo, hi int) *Vector {
	if lo < 0 || hi < lo || hi > len(v.vals) {
		panic(fmt.Sprintf("vec: slice [%d,%d) out of range for length %d", lo, hi, len(v.vals)))
	}
	return &Vector{vals: v.vals[lo:hi:hi], dict: v.dict}
}

// StringAt renders position i as a string for dictionary-coded vectors.
func (v *Vector) StringAt(i int) string {
	if v.dict == nil {
		return fmt.Sprintf("%d", v.vals[i])
	}
	return v.dict.Value(v.vals[i])
}

// Bytes reports the payload size in bytes (8 bytes per value), the unit the
// cost model charges for sequential scans.
func (v *Vector) Bytes() int64 { return int64(len(v.vals)) * 8 }

// Concat concatenates the parts in argument order into a freshly allocated
// vector. It is the kernel of the exchange-union (pack) operator; argument
// order must follow partition order so that packed outputs preserve the
// ordering invariant from §2.3 of the paper. All parts must share the same
// dictionary (or all have none).
func Concat(parts ...*Vector) *Vector {
	total := 0
	var dict *Dict
	for i, p := range parts {
		total += p.Len()
		if i == 0 {
			dict = p.dict
		} else if p.dict != dict {
			panic("vec: Concat over mixed dictionaries")
		}
	}
	out := make([]int64, 0, total)
	for _, p := range parts {
		out = append(out, p.vals...)
	}
	return &Vector{vals: out, dict: dict}
}

// Equal reports whether two vectors hold identical values (dictionaries are
// compared by rendered strings so logically equal string vectors compare
// equal even across distinct dictionary instances).
func Equal(a, b *Vector) bool {
	if a.Len() != b.Len() {
		return false
	}
	if a.dict == nil && b.dict == nil {
		for i, v := range a.vals {
			if b.vals[i] != v {
				return false
			}
		}
		return true
	}
	if a.dict == nil || b.dict == nil {
		return false
	}
	for i := range a.vals {
		if a.StringAt(i) != b.StringAt(i) {
			return false
		}
	}
	return true
}
