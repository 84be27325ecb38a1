package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// bodyDecoder is the one scanner of the POST bodies that do not go through
// encoding/json: one pass over one body, without reflection, into one of two
// schemas — appendRequest (decodeAppend) and QueryRequest (decodeQuery) —
// each as json.Unmarshal would fill it. off is the next byte to read; kind
// names the body in errors. Arrays after the first are presized to hint, the
// first's length, while budget lasts: an element takes two bytes or more, so
// real columns never reserve more than len(data)/2 elements.
type bodyDecoder struct {
	data              []byte
	kind              string
	off, hint, budget int
}

// decodeAppend decodes one /admin/append body into req in one pass, without
// reflection, as json.Unmarshal would (FuzzAppendBody is the oracle): keys
// fold case, unknown keys' values are validated and skipped, null leaves a
// string and clears a slice, a repeated key merges or overwrites. No string
// aliases data, which is pooled: the tenant, the table and every key are
// fresh copies, and a compact plain "strs" array is one copy with its
// elements cut from it — so an element may share memory with its neighbours,
// and whatever keeps one copies it (vec.Dict.Extend does).
func decodeAppend(data []byte, req *appendRequest) error {
	d := bodyDecoder{data: data, kind: "append body", budget: len(data) / 2}
	err := d.object(1, func(key []byte) error {
		switch {
		case bytes.EqualFold(key, []byte("columns")):
			return d.columns(&req.Columns)
		case d.lit("null"):
			return nil
		case bytes.EqualFold(key, []byte("tenant")):
			return d.str(&req.Tenant)
		case bytes.EqualFold(key, []byte("table")):
			return d.str(&req.Table)
		}
		return d.skip(1)
	})
	return d.end(err)
}

// decodeQuery decodes one /query body into req in one pass, as
// json.Unmarshal would (FuzzQueryBody is the oracle): keys fold case,
// unknown keys' values are validated and skipped, null leaves a string, an
// int or a bool as it was and clears a spec or a bound, a repeated key's last
// value wins and a repeated spec object merges into the first, an int takes
// the JSON integer grammar. The body stays intact — the federation stage
// forwards it — and no string aliases it: the plan builder and the
// fingerprint cache keep the spec's.
func decodeQuery(data []byte, req *QueryRequest) error {
	d := bodyDecoder{data: data, kind: "query body"}
	err := d.object(1, func(key []byte) error {
		switch {
		case bytes.EqualFold(key, []byte("select_sum")):
			return d.spec(&req.SelectSum)
		case bytes.EqualFold(key, []byte("select_rows")):
			return d.spec(&req.SelectRows)
		case d.lit("null"):
			return nil
		case bytes.EqualFold(key, []byte("query")):
			return integer(&d, &req.Query)
		case bytes.EqualFold(key, []byte("max_cores")):
			return integer(&d, &req.MaxCores)
		case bytes.EqualFold(key, []byte("results")):
			return d.bool(&req.Results)
		case bytes.EqualFold(key, []byte("mode")):
			return d.str(&req.Mode)
		case bytes.EqualFold(key, []byte("tenant")):
			return d.str(&req.Tenant)
		case bytes.EqualFold(key, []byte("benchmark")):
			return d.str(&req.Benchmark)
		}
		return d.skip(1)
	})
	return d.end(err)
}

// spec reads "select_sum" / "select_rows": null clears *p, and an object
// fills the spec *p points to, a new one when it is nil — made in one
// allocation with the two bounds it may come to point to.
func (d *bodyDecoder) spec(p **SelectSumSpec) error {
	if d.lit("null") {
		*p = nil
		return nil
	}
	var lo, hi *int64
	if *p == nil {
		a := new(struct {
			SelectSumSpec
			lo, hi int64
		})
		*p, lo, hi = &a.SelectSumSpec, &a.lo, &a.hi
	}
	sp := *p
	return d.object(2, func(key []byte) error {
		switch {
		case bytes.EqualFold(key, []byte("lo")):
			return d.bound(&sp.Lo, lo)
		case bytes.EqualFold(key, []byte("hi")):
			return d.bound(&sp.Hi, hi)
		case d.lit("null"):
			return nil
		case bytes.EqualFold(key, []byte("table")):
			return d.str(&sp.Table)
		case bytes.EqualFold(key, []byte("column")):
			return d.str(&sp.Column)
		}
		return d.skip(2)
	})
}

// bound reads "lo" / "hi": null clears *p, and an int64 is written where *p
// points — to slot, or a new int64 when slot is nil, if *p is nil.
func (d *bodyDecoder) bound(p **int64, slot *int64) error {
	if d.lit("null") {
		*p = nil
		return nil
	}
	if *p == nil {
		if *p = slot; slot == nil {
			*p = new(int64)
		}
	}
	return integer(d, *p)
}

// integer reads a JSON integer within int64 into *p; the caller has taken
// null, which skipped the whitespace before it.
func integer[T int | int64](d *bodyDecoder, p *T) error {
	v, end, ok := intAt(d.data, d.off)
	if d.off, *p = end, T(v); !ok {
		return d.fail("an int64")
	}
	return nil
}

// bool reads a bool field; the caller has taken null.
func (d *bodyDecoder) bool(p *bool) error {
	if *p = d.lit("true"); !*p && !d.lit("false") {
		return d.fail("true or false")
	}
	return nil
}

// end refuses whatever follows the top-level value.
func (d *bodyDecoder) end(err error) error {
	if d.peek(); err == nil && d.off < len(d.data) {
		err = d.fail("the end of the body")
	}
	return err
}

// columns reads "columns": null clears the map, a second object merges in,
// and each column decodes from zero, so a repeated name's last value wins.
func (d *bodyDecoder) columns(m *map[string]storage.ColumnAppend) error {
	if d.lit("null") {
		*m = nil
		return nil
	}
	if *m == nil {
		*m = map[string]storage.ColumnAppend{}
	}
	return d.object(2, func(name []byte) error {
		var c storage.ColumnAppend
		err := d.object(3, func(key []byte) error {
			switch {
			case bytes.EqualFold(key, []byte("ints")):
				return d.ints(&c.Ints)
			case bytes.EqualFold(key, []byte("strs")):
				return d.strs(&c.Strs)
			}
			return d.skip(3)
		})
		(*m)[string(name)] = c
		return err
	})
}

// An array decodes into *p the way encoding/json fills a slice: element i
// lands in the slice's own slot i — a repeated key reuses the slots, and a
// null element leaves its slot as it was (zero in fresh memory) — then the
// slice is cut to the elements read; [] is a fresh empty slice and null
// clears it. slots and cut are the two ends every array shares.

// slots returns s, or for a nil s an empty slice presized to hint while
// budget lasts.
func slots[T any](d *bodyDecoder, s []T) []T {
	if s == nil {
		n := min(d.hint, d.budget)
		d.budget -= n
		s = make([]T, 0, n)
	}
	return s
}

// cut stores the n elements read into *p, and makes the first array's
// length the hint.
func cut[T any](d *bodyDecoder, p *[]T, s []T, n int) {
	if *p = s[:n]; n == 0 {
		*p = []T{}
	} else if d.hint == 0 {
		d.hint = n
	}
}

// ints reads "ints": null or an array of JSON numbers with no fraction or
// exponent, in one loop over the body.
func (d *bodyDecoder) ints(p *[]int64) error {
	if d.lit("null") {
		*p = nil
		return nil
	}
	if !d.lit("[") {
		return d.fail("[")
	}
	s, k := slots(d, *p), 0
	data, i := d.data, space(d.data, d.off)
	if i < len(data) && data[i] == ']' {
		d.off = i + 1
		cut(d, p, s, 0)
		return nil
	}
	for {
		// The slots past len(s) but within its capacity hold what they held,
		// as encoding/json's slice growth exposes them; new capacity is zero.
		if k == len(s) {
			s = slices.Grow(s, 1)
			s = s[:cap(s)]
		}
		k++
		if i = space(data, i); i < len(data) && data[i] == 'n' {
			if len(data)-i < 4 || string(data[i:i+4]) != "null" {
				d.off = i
				return d.fail("an int64")
			}
			i += 4
		} else {
			// intAt's loop, inline: a call per element costs ~8 % of a
			// lineitem body's decode.
			neg := i < len(data) && data[i] == '-'
			if neg {
				i++
			}
			start, n := i, uint64(0)
			for ; i < len(data) && data[i]-'0' < 10; i++ {
				n = n*10 + uint64(data[i]-'0')
			}
			if !intFits(data, start, i, n, neg) {
				d.off = start
				return d.fail("an int64")
			}
			if s[k-1] = int64(n); neg {
				s[k-1] = -s[k-1]
			}
		}
		if i = space(data, i); i < len(data) && data[i] == ',' {
			i++
			continue
		}
		if d.off = i; i == len(data) || data[i] != ']' {
			return d.fail("',' or ]")
		}
		d.off++
		cut(d, p, s, k)
		return nil
	}
}

// intAt reads the JSON integer at data[i:] that fits an int64 — no
// fraction, exponent or leading zero — and returns it with the offset past
// it, or reports false with the offset of its first digit.
func intAt(data []byte, i int) (v int64, end int, ok bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start, n := i, uint64(0)
	for ; i < len(data) && data[i]-'0' < 10; i++ {
		n = n*10 + uint64(data[i]-'0')
	}
	if !intFits(data, start, i, n, neg) {
		return 0, start, false
	}
	if v = int64(n); neg {
		v = -v
	}
	return v, i, true
}

// intFits reports whether the digits data[start:i], accumulated into n, are
// a JSON integer whose value (negated when neg) fits an int64. Past 19
// digits the accumulator may wrap; a leading zero is not JSON.
func intFits(data []byte, start, i int, n uint64, neg bool) bool {
	digits := i - start
	return digits > 0 && digits <= 19 && (n < 1<<63 || n == 1<<63 && neg) && (digits == 1 || data[start] != '0') &&
		(i == len(data) || data[i] != '.' && data[i]|0x20 != 'e')
}

// strs reads "strs": null or an array of strings, through plainStrs when it
// applies and element by element, each a fresh copy, when it does not.
func (d *bodyDecoder) strs(p *[]string) error {
	if d.peek() == '[' && d.plainStrs(p) {
		return nil
	}
	if d.lit("null") {
		*p = nil
		return nil
	}
	s, k := slots(d, *p), 0
	err := d.seq(4, "[", "]", func() error {
		if k == len(s) {
			s = slices.Grow(s, 1)[:k+1]
		}
		if k++; d.peek() == 'n' && d.lit("null") {
			return nil
		}
		return d.str(&s[k-1])
	})
	if err != nil {
		return err
	}
	cut(d, p, s, k)
	return nil
}

// plainStrs reads the array at d.off into *p when it is a compact array of
// plain tokens — no whitespace, null, escape, control byte or byte >= 0x80 —
// and reports false, having read and allocated nothing, for any other. One
// pass checks the tokens and finds the closing ']'; then the array is copied
// once and each element cut from the copy at its closing quote, into the
// slots as the per-element path fills them.
func (d *bodyDecoder) plainStrs(p *[]string) bool {
	data, i, n := d.data, d.off+1, 0
	for {
		// data[i] should be a token's opening quote.
		if i == len(data) || data[i] != '"' {
			return false
		}
		j := plainEnd(data, i+1, len(data))
		if j+1 >= len(data) || data[j] != '"' {
			return false
		}
		n++
		if i = j + 1; data[i] == ']' {
			break
		}
		if data[i] != ',' {
			return false
		}
		i++
	}
	// all runs from the first token's first byte to the last one's last.
	all := string(data[d.off+2 : i-1])
	d.off = i + 1
	// The length is known here, so even the first array is presized.
	if d.hint == 0 {
		d.hint = n
	}
	s := slots(d, *p)
	for k := 0; k < n; k++ {
		if k == len(s) {
			s = slices.Grow(s, 1)
			s = s[:cap(s)]
		}
		if q := strings.IndexByte(all, '"'); q >= 0 {
			s[k], all = all[:q], all[q+3:]
		} else {
			s[k] = all
		}
	}
	cut(d, p, s, n)
	return true
}

// plainEnd returns the offset of the first byte in data[i:end] that does not
// stand for itself in a JSON string — '"', '\', a control byte or >= 0x80 —
// or end, checking eight bytes at a time.
func plainEnd(data []byte, i, end int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= end; i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		q, bs := w^(ones*'"'), w^(ones*'\\')
		// A byte's high bit is set in m when it is below ' ', equals '"' or
		// '\', or is >= 0x80. Each term marks the first such byte of its
		// kind exactly; a borrow can only mark bytes above it.
		if m := ((w-ones*' ')&^w | (q-ones)&^q | (bs-ones)&^bs | w) & highs; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < end && data[i] >= ' ' && data[i] < 0x80 && data[i] != '"' && data[i] != '\\'; i++ {
	}
	return i
}

// object reads null (a no-op) or an object; field consumes each key's value.
func (d *bodyDecoder) object(depth int, field func(key []byte) error) error {
	if d.lit("null") {
		return nil
	}
	return d.seq(depth, "{", "}", func() error {
		key, err := d.text()
		if err == nil && !d.lit(":") {
			err = d.fail("':'")
		}
		if err != nil {
			return err
		}
		return field(key)
	})
}

// seq reads open, comma-separated items (item consumes one), and close.
func (d *bodyDecoder) seq(depth int, open, close string, item func() error) error {
	if depth > 10000 || !d.lit(open) { // encoding/json's nesting limit
		return d.fail(open + " within 10000 levels")
	}
	if d.lit(close) {
		return nil
	}
	for {
		if err := item(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case close[0]:
			d.off++
			return nil
		default:
			return d.fail("',' or " + close)
		}
	}
}

// skip reads one value of any type in a container at depth.
func (d *bodyDecoder) skip(depth int) error {
	switch d.peek() {
	case '{':
		return d.object(depth+1, func([]byte) error { return d.skip(depth + 1) })
	case '[':
		return d.seq(depth+1, "[", "]", func() error { return d.skip(depth + 1) })
	case '"':
		_, err := d.text()
		return err
	}
	// A number or literal: valid JSON never follows one with a byte it holds.
	end := d.off
	for end < len(d.data) && strings.IndexByte("+-.0123456789Eaeflnrstu", d.data[end]) >= 0 {
		end++
	}
	if !json.Valid(d.data[d.off:end]) {
		return d.fail("a value")
	}
	d.off = end
	return nil
}

// str reads a string as a fresh copy.
func (d *bodyDecoder) str(p *string) error {
	b, err := d.text()
	*p = string(b)
	return err
}

// text reads a string token: a view of the body for plain ASCII without a
// backslash or control byte, else json.Unmarshal of the token alone, which
// validates it and decodes escapes, surrogates and invalid UTF-8 (U+FFFD).
func (d *bodyDecoder) text() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.fail("a string")
	}
	i := plainEnd(d.data, d.off+1, len(d.data))
	if i < len(d.data) && d.data[i] == '"' {
		tok := d.data[d.off+1 : i]
		d.off = i + 1
		return tok, nil
	}
	for ; i < len(d.data); i++ {
		switch d.data[i] {
		case '"':
			var s string
			err := json.Unmarshal(d.data[d.off:i+1], &s)
			d.off = i + 1
			return []byte(s), err
		case '\\':
			i++
		}
	}
	return nil, d.fail("a closing quote")
}

// lit consumes s if it comes next.
func (d *bodyDecoder) lit(s string) bool {
	if d.peek() != s[0] || len(d.data)-d.off < len(s) || string(d.data[d.off:d.off+len(s)]) != s {
		return false
	}
	d.off += len(s)
	return true
}

// peek skips whitespace and returns the next byte, or 0 at the end — which
// no grammar rule accepts. Every value reader starts with it.
func (d *bodyDecoder) peek() byte {
	if d.off = space(d.data, d.off); d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// space returns the offset of the first byte at or after i that is not JSON
// whitespace.
func space(data []byte, i int) int {
	for i < len(data) && data[i] <= ' ' && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

func (d *bodyDecoder) fail(want string) error {
	return fmt.Errorf("%s: offset %d: want %s", d.kind, d.off, want)
}

// appendQueryResponse appends r as JSON to b, byte for byte what json.Marshal
// writes (FuzzQueryReply is the oracle): the fields in order, omitempty,
// encoding/json's float format and its HTML-safe string escaping. A NaN or
// infinite float is json.Marshal's error.
func appendQueryResponse(b []byte, r *QueryResponse) ([]byte, error) {
	for _, f := range [...]float64{r.LatencyNs, r.BestLatencyNs, r.SerialLatencyNs, r.Speedup} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			_, err := json.Marshal(*r)
			return b, err
		}
	}
	// Every field is written with a leading comma; the first one's becomes
	// the opening brace ("query" is never omitted, so there is a first).
	start := len(b)
	if r.Session != "" {
		b = appendJSONString(append(b, `,"session":`...), r.Session)
	}
	if r.Fingerprint != "" {
		b = appendJSONString(append(b, `,"fingerprint":`...), r.Fingerprint)
	}
	b = appendJSONString(append(b, `,"query":`...), r.Query)
	if r.Tenant != "" {
		b = appendJSONString(append(b, `,"tenant":`...), r.Tenant)
	}
	b = strconv.AppendInt(append(b, `,"shard":`...), int64(r.Shard), 10)
	b = appendJSONString(append(b, `,"state":`...), r.State)
	b = strconv.AppendInt(append(b, `,"run":`...), int64(r.Run), 10)
	b = strconv.AppendBool(append(b, `,"cache_hit":`...), r.CacheHit)
	b = appendJSONFloat(append(b, `,"latency_ns":`...), r.LatencyNs)
	if r.BestLatencyNs != 0 {
		b = appendJSONFloat(append(b, `,"best_latency_ns":`...), r.BestLatencyNs)
	}
	if r.SerialLatencyNs != 0 {
		b = appendJSONFloat(append(b, `,"serial_latency_ns":`...), r.SerialLatencyNs)
	}
	if r.Speedup != 0 {
		b = appendJSONFloat(append(b, `,"speedup":`...), r.Speedup)
	}
	b = strconv.AppendInt(append(b, `,"dop":`...), int64(r.DOP), 10)
	b = strconv.AppendInt(append(b, `,"max_cores":`...), int64(r.MaxCores), 10)
	b = strconv.AppendInt(append(b, `,"num_values":`...), int64(r.NumValues), 10)
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	b[start] = '{'
	return append(b, '}'), nil
}

// appendJSONString appends s as a JSON string: as it is when it is printable
// ASCII that needs no escape (HTML-safe: not '<', '>' or '&'), else through
// json.Marshal on its own.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends a finite f as encoding/json does: like
// strconv's shortest 'f', with 'e' below 1e-6 and from 1e21, and an
// exponent's leading zero dropped.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
