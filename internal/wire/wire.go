// Package wire is the byte-level codec shared by the repo's binary formats:
// the canonical plan form (plan.Encode), the convergence store's records and
// APQXPORT documents, and the APQRESULT result stream. It holds one
// bounds-checked Reader and the Append helpers that write what it reads.
//
// A Reader's error is sticky: the first read that fails — past the end of
// the input, a malformed or padded varint, a bool byte other than 0 or 1 —
// records an error, and every later read returns a zero value and leaves that
// error in place. A format walker reads a run of fields and checks Err once;
// it still checks before acting on a value (a count it allocates by, an
// index it stores), since a zero value read after a failure is not data.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader walks one input buffer. The zero value reads an empty input.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf. Byte slices it returns alias buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first error a read recorded, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Failf records a format error at the current offset, unless an error is
// already recorded; later reads return zero values.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), r.off)
	}
}

// Raw reads the next n bytes.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.Failf("truncated: want %d bytes, have %d", n, r.Len())
		return nil
	}
	if n == 0 {
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.Raw(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch b := r.Byte(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Failf("invalid bool byte %d", b)
		return false
	}
}

// Uvarint reads an unsigned varint in its canonical (shortest) encoding.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if !r.varint(n) {
		return 0
	}
	return v
}

// Varint reads a zigzag signed varint in its canonical (shortest) encoding.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if !r.varint(n) {
		return 0
	}
	return v
}

// varint consumes an n-byte varint, as binary.Uvarint or binary.Varint
// reported it. A padded encoding (a zero final byte after the first) decodes
// to a value the Append functions write shorter; accepting it would give one
// value two byte strings, and the formats built on Reader promise one.
func (r *Reader) varint(n int) bool {
	switch {
	case n == 0:
		r.Failf("truncated varint")
	case n < 0:
		r.Failf("varint overflows 64 bits")
	case n > 1 && r.buf[r.off+n-1] == 0:
		r.Failf("non-canonical (padded) varint")
	default:
		r.off += n
		return true
	}
	return false
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Raw(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 {
	if b := r.Raw(8); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Float64 reads a little-endian IEEE 754 float64, bit for bit.
func (r *Reader) Float64() float64 { return math.Float64frombits(uint64(r.I64())) }

// Bytes reads a uvarint length and that many bytes; an empty field is nil.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		r.Failf("field length %d exceeds input", n)
		return nil
	}
	return r.Raw(int(n))
}

// Str reads a uvarint length and that many bytes as a string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// AppendBytes appends b with its uvarint length, as Reader.Bytes reads it.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends s with its uvarint length, as Reader.Str reads it.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBool appends b as one byte, 1 or 0.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendFloat64 appends f as Reader.Float64 reads it.
func AppendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendInt64LE appends vals in little-endian byte order and returns the
// extended slice. It never retains vals. APQRESULT streams published vector
// buffers to the socket through it, so the wire layer never reaches into
// vector internals.
func AppendInt64LE(dst []byte, vals []int64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// Int64LE reads n little-endian int64 values, as AppendInt64LE writes
// them, into a fresh slice.
func (r *Reader) Int64LE(n int) []int64 {
	if n > r.Len()/8 {
		r.Failf("truncated: want %d int64s, have %d bytes", n, r.Len())
		return nil
	}
	b := r.Raw(8 * n)
	if b == nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}
