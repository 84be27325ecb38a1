package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"sync"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vec"
	"repro/internal/wire"
)

// APQRESULT: the columnar result wire format POST /query streams when a
// client negotiates real results ("results":true in the body, or an Accept
// header containing ResultContentType). The reply frames the JSON metadata
// the plain path would have sent, followed by every result value encoded
// column-at-a-time straight from the published immutable vec buffers — no
// row-wise materialization anywhere between engine and socket.
//
// Layout (all integers little-endian):
//
//	magic   [9]byte  "APQRESULT"
//	version uint32   (currently 1)
//	metaLen uint32   + metaLen bytes of canonical JSON (QueryResponse)
//	nvalues uint32
//	value*           (see below)
//	crc32c  uint32   CRC-32 (Castagnoli) over every preceding byte
//
// One value is a kind tag byte followed by its payload:
//
//	1 scalar: int64
//	2 oids:   int-stream
//	3 column: nameLen uint32 + name, seq int64, dictFlag uint8,
//	          [dictN uint32, dictN × (strLen uint32 + bytes)],
//	          int-stream (raw values; dictionary codes when dictFlag=1)
//	4 groups: a column (the distinct keys) + an int-stream (per-row gids)
//
// An int-stream is total uint32 followed by chunk frames — count uint32 +
// count×8 payload bytes — where every count must equal
// min(resultChunkValues, remaining). The fixed chunk cap bounds encoder
// buffering (large results stream chunk-by-chunk, resultBufSize bytes at a
// time) and makes chunk boundaries deterministic: the same (metadata,
// values) pair encodes to the same bytes on every node, which is what lets
// the cluster layer proxy a remote owner's reply verbatim and still promise
// bit-identical payloads. The decoder enforces the canonical boundaries, so
// any APQRESULT that decodes also re-encodes bit-identically (the fuzz
// round-trip property).
//
// Ownership: the encoder only reads. Values reachable from a result escape
// the engine per the exec ownership contract — allocated fresh each run,
// never pooled, never rewritten — so streaming them after the shard lock is
// released (and sharing them across coalesced waiters) is safe without
// copies; Evict/Retire recycle only arenas and schedules.

// ResultContentType is the APQRESULT media type; requests carrying it in
// Accept negotiate the columnar reply.
const ResultContentType = "application/x-apqresult"

var resultMagic = [9]byte{'A', 'P', 'Q', 'R', 'E', 'S', 'U', 'L', 'T'}

const (
	resultVersion = 1
	// resultChunkValues caps one int-stream chunk frame at 64 KiB of
	// payload (8192 × 8 bytes) — the streaming byte cap.
	resultChunkValues = 8192
	// resultBufSize is the pooled staging buffer: one chunk frame plus
	// header slack, so the encoder never holds more than ~64 KiB of a
	// result in flight regardless of result size.
	resultBufSize = resultChunkValues*8 + 256
)

// Value kind tags on the wire.
const (
	resKindScalar byte = 1
	resKindOids   byte = 2
	resKindColumn byte = 3
	resKindGroups byte = 4
)

var resultCRC = crc32.MakeTable(crc32.Castagnoli)

var resultBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, resultBufSize)
	return &b
}}

// wantsResult reports whether a decoded /query request negotiated the
// columnar APQRESULT reply.
func wantsResult(accept string, req *QueryRequest) bool {
	return req.Results || strings.Contains(accept, ResultContentType)
}

// resultWriter streams an APQRESULT document: writes stage through a pooled
// buffer, flushing a chunk at a time through the CRC into w.
type resultWriter struct {
	w   io.Writer
	buf []byte
	crc uint32
	n   int64
	err error
}

func (rw *resultWriter) flush() {
	if len(rw.buf) == 0 || rw.err != nil {
		rw.buf = rw.buf[:0]
		return
	}
	rw.crc = crc32.Update(rw.crc, resultCRC, rw.buf)
	n, err := rw.w.Write(rw.buf)
	rw.n += int64(n)
	if err != nil {
		rw.err = err
	}
	rw.buf = rw.buf[:0]
}

func (rw *resultWriter) ensure(n int) {
	if len(rw.buf)+n > cap(rw.buf) {
		rw.flush()
	}
}

func (rw *resultWriter) u8(v byte) { rw.ensure(1); rw.buf = append(rw.buf, v) }
func (rw *resultWriter) u32(v uint32) {
	rw.ensure(4)
	rw.buf = binary.LittleEndian.AppendUint32(rw.buf, v)
}
func (rw *resultWriter) i64(v int64) {
	rw.ensure(8)
	rw.buf = binary.LittleEndian.AppendUint64(rw.buf, uint64(v))
}

// raw writes arbitrary bytes (magic, metadata, dictionary strings).
func (rw *resultWriter) raw(p []byte) {
	for len(p) > 0 {
		room := cap(rw.buf) - len(rw.buf)
		if room == 0 {
			rw.flush()
			room = cap(rw.buf)
		}
		n := min(room, len(p))
		rw.buf = append(rw.buf, p[:n]...)
		p = p[n:]
	}
}

// ints writes one int-stream: the total, then canonical chunk frames
// streamed straight off the immutable backing slice.
func (rw *resultWriter) ints(vals []int64) {
	rw.u32(uint32(len(vals)))
	for off := 0; off < len(vals); off += resultChunkValues {
		chunk := vals[off:min(off+resultChunkValues, len(vals))]
		rw.u32(uint32(len(chunk)))
		for len(chunk) > 0 {
			room := (cap(rw.buf) - len(rw.buf)) / 8
			if room == 0 {
				rw.flush()
				room = cap(rw.buf) / 8
			}
			n := min(room, len(chunk))
			rw.buf = wire.AppendInt64LE(rw.buf, chunk[:n])
			chunk = chunk[n:]
		}
	}
}

func (rw *resultWriter) column(c *storage.Column) {
	name := c.Name()
	rw.u32(uint32(len(name)))
	rw.raw([]byte(name))
	rw.i64(c.Seq())
	if d := c.Dict(); d != nil {
		rw.u8(1)
		rw.u32(uint32(d.Len()))
		for i := 0; i < d.Len(); i++ {
			s := d.Value(int64(i))
			rw.u32(uint32(len(s)))
			rw.raw([]byte(s))
		}
	} else {
		rw.u8(0)
	}
	rw.ints(c.Values())
}

// writeResult streams the APQRESULT document for (meta, vals) to w and
// returns the bytes written. meta must be the canonical JSON encoding of the
// reply's QueryResponse (json.Marshal output) — the decoder rejects anything
// else, which is what pins decode→re-encode bit-identity.
func writeResult(w io.Writer, meta []byte, vals []exec.Value) (int64, error) {
	bp := resultBufPool.Get().(*[]byte)
	rw := &resultWriter{w: w, buf: (*bp)[:0]}
	rw.raw(resultMagic[:])
	rw.u32(resultVersion)
	rw.u32(uint32(len(meta)))
	rw.raw(meta)
	rw.u32(uint32(len(vals)))
	for _, v := range vals {
		switch v.Kind {
		case plan.KindScalar:
			rw.u8(resKindScalar)
			rw.i64(v.Scalar)
		case plan.KindOids:
			rw.u8(resKindOids)
			rw.ints(v.Oids)
		case plan.KindColumn:
			rw.u8(resKindColumn)
			rw.column(v.Col)
		case plan.KindGroups:
			rw.u8(resKindGroups)
			rw.column(v.Groups.Keys)
			rw.ints(v.Groups.GIDs)
		default:
			rw.err = fmt.Errorf("server: result: unencodable value kind %v", v.Kind)
		}
		if rw.err != nil {
			break
		}
	}
	rw.flush()
	if rw.err == nil {
		var trailer [4]byte
		binary.LittleEndian.PutUint32(trailer[:], rw.crc)
		n, err := rw.w.Write(trailer[:])
		rw.n += int64(n)
		rw.err = err
	}
	*bp = rw.buf[:0]
	resultBufPool.Put(bp)
	return rw.n, rw.err
}

// EncodeResult renders the APQRESULT document for (resp, vals) into a fresh
// byte slice — the non-streaming twin of the handler's writer, shared by
// tests, the fuzz round-trip property, and client-side tooling.
func EncodeResult(resp *QueryResponse, vals []exec.Value) ([]byte, error) {
	meta, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := writeResult(&buf, meta, vals); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ResultPayload is a decoded APQRESULT document: the reply metadata the JSON
// path would have carried, plus the typed result values.
type ResultPayload struct {
	Meta   QueryResponse
	Values []exec.Value
}

// readInts decodes one int-stream, enforcing the canonical chunk
// boundaries. The preallocation is capped by the payload bytes remaining, so
// a hostile total cannot make the decoder allocate past its input size.
func readInts(r *wire.Reader) []int64 {
	total := r.U32()
	if uint64(total)*8 > uint64(r.Len()) {
		r.Failf("int-stream claims %d values with %d bytes left", total, r.Len())
		return nil
	}
	out := make([]int64, 0, total)
	for len(out) < int(total) && r.Err() == nil {
		want := min(int(total)-len(out), resultChunkValues)
		if n := int(r.U32()); n != want {
			r.Failf("chunk of %d values, want %d (non-canonical boundary)", n, want)
		}
		out = append(out, r.Int64LE(want)...)
	}
	return out
}

func readColumn(r *wire.Reader) *storage.Column {
	name := string(r.Raw(int(r.U32())))
	seq := r.I64()
	var dict *vec.Dict
	if r.Bool() {
		dictN := r.U32()
		// Each entry is at least its 4-byte length prefix.
		if uint64(dictN)*4 > uint64(r.Len()) {
			r.Failf("dictionary claims %d entries with %d bytes left", dictN, r.Len())
		}
		dict = vec.NewDict()
		for i := uint32(0); i < dictN && r.Err() == nil; i++ {
			if s := r.Raw(int(r.U32())); r.Err() == nil && dict.Code(string(s)) != int64(i) {
				r.Failf("duplicate dictionary entry %q", s)
			}
		}
	}
	vals := readInts(r)
	if dict != nil {
		for _, c := range vals {
			if c < 0 || c >= int64(dict.Len()) {
				r.Failf("dictionary code %d out of range [0,%d)", c, dict.Len())
				break
			}
		}
	}
	if r.Err() != nil {
		return nil
	}
	return storage.NewColumn(name, seq, vec.New(vals, dict))
}

// DecodeResult parses an APQRESULT document. Hostile input — bad magic or
// version, corrupt framing, truncated columns, lying length prefixes —
// errors; it never panics and never allocates beyond a small multiple of the
// input size. Decode success implies the document is canonical: re-encoding
// the returned payload reproduces the input bit-for-bit.
func DecodeResult(data []byte) (*ResultPayload, error) {
	minLen := len(resultMagic) + 4 + 4 + 4 + 4 // magic, version, metaLen, nvalues, crc
	if len(data) < minLen {
		return nil, fmt.Errorf("server: result: %d bytes is too short for an APQRESULT document", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.Checksum(body, resultCRC); got != want {
		return nil, fmt.Errorf("server: result: CRC mismatch (document %08x, computed %08x)", got, want)
	}
	r := wire.NewReader(body)
	if !bytes.Equal(r.Raw(len(resultMagic)), resultMagic[:]) {
		return nil, errors.New("server: result: bad magic (not an APQRESULT document)")
	}
	if version := r.U32(); version != resultVersion {
		return nil, fmt.Errorf("server: result: unsupported version %d (this decoder reads %d)", version, resultVersion)
	}
	metaRaw := r.Raw(int(r.U32()))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("server: result: metadata: %w", err)
	}
	p := &ResultPayload{}
	if err := json.Unmarshal(metaRaw, &p.Meta); err != nil {
		return nil, fmt.Errorf("server: result: bad metadata: %w", err)
	}
	// Canonical-form check: the metadata must be exactly what this package's
	// encoder would emit, so decode→re-encode is bit-identical.
	if canon, err := json.Marshal(&p.Meta); err != nil || !bytes.Equal(canon, metaRaw) {
		return nil, errors.New("server: result: non-canonical metadata encoding")
	}
	nvals := r.U32()
	// Smallest possible value is an empty oids stream: 1 tag + 4 total.
	if uint64(nvals)*5 > uint64(r.Len()) {
		return nil, fmt.Errorf("server: result: %d values claimed with %d bytes left", nvals, r.Len())
	}
	p.Values = make([]exec.Value, 0, nvals)
	for i := uint32(0); i < nvals && r.Err() == nil; i++ {
		switch kind := r.Byte(); kind {
		case resKindScalar:
			p.Values = append(p.Values, exec.ScalarValue(r.I64()))
		case resKindOids:
			p.Values = append(p.Values, exec.OidsValue(readInts(r)))
		case resKindColumn:
			p.Values = append(p.Values, exec.ColValue(readColumn(r)))
		case resKindGroups:
			keys := readColumn(r)
			p.Values = append(p.Values, exec.GroupsValue(&algebra.Groups{Keys: keys, GIDs: readInts(r)}))
		default:
			r.Failf("unknown value kind %d", kind)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("server: result: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("server: result: %d trailing bytes after the last value", r.Len())
	}
	return p, nil
}
