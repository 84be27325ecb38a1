package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/storage"
)

// appendDecoder is one pass over one body; off is the next byte to read.
// Arrays after the first are presized to hint, the first's length, while
// budget lasts: an element takes two bytes or more, so real columns never
// reserve more than len(data)/2 elements.
type appendDecoder struct {
	data              []byte
	off, hint, budget int
}

// decodeAppend decodes one /admin/append body into req in one pass, without
// reflection, as json.Unmarshal would (FuzzAppendBody is the oracle): keys
// fold case, unknown keys' values are validated and skipped, null leaves a
// string and clears a slice, a repeated key merges or overwrites. Strings are
// fresh copies: data is pooled, and a dictionary keeps what it takes in.
func decodeAppend(data []byte, req *appendRequest) error {
	d := appendDecoder{data: data, budget: len(data) / 2}
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
	if d.peek(); err == nil && d.off < len(d.data) {
		err = d.fail("the end of the body")
	}
	return err
}

// columns reads "columns": null clears the map, a second object merges in,
// and each column decodes from zero, so a repeated name's last value wins.
func (d *appendDecoder) columns(m *map[string]storage.ColumnAppend) error {
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
				return array(d, &c.Ints, d.int)
			case bytes.EqualFold(key, []byte("strs")):
				return array(d, &c.Strs, d.str)
			}
			return d.skip(3)
		})
		(*m)[string(name)] = c
		return err
	})
}

// array reads null or an array into *p the way encoding/json fills a slice:
// element i lands in the slice's own slot i — a repeated key reuses the
// slots, and a null element leaves its slot as it was (zero in fresh memory)
// — then the slice is cut to the elements read; [] is a fresh empty slice.
func array[T any](d *appendDecoder, p *[]T, elem func(*T) error) error {
	if d.lit("null") {
		*p = nil
		return nil
	}
	s, i := *p, 0
	if s == nil {
		n := min(d.hint, d.budget)
		d.budget -= n
		s = make([]T, 0, n)
	}
	err := d.seq(4, "[", "]", func() error {
		if i == len(s) {
			s = slices.Grow(s, 1)[:i+1]
		}
		if i++; d.peek() == 'n' && d.lit("null") {
			return nil
		}
		return elem(&s[i-1])
	})
	if *p = s[:i]; i == 0 {
		*p = []T{}
	} else if d.hint == 0 {
		d.hint = i
	}
	return err
}

// object reads null (a no-op) or an object; field consumes each key's value.
func (d *appendDecoder) object(depth int, field func(key []byte) error) error {
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
func (d *appendDecoder) seq(depth int, open, close string, item func() error) error {
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
func (d *appendDecoder) skip(depth int) error {
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

// int reads an "ints" element: a JSON number with no fraction or exponent.
func (d *appendDecoder) int(p *int64) error {
	neg := d.peek() == '-'
	data, i := d.data, d.off
	if neg {
		i++
	}
	start, n := i, uint64(0)
	for ; i < len(data) && data[i]-'0' < 10; i++ {
		n = n*10 + uint64(data[i]-'0')
	}
	// Past 19 digits the accumulator may wrap; a leading zero is not JSON.
	if digits := i - start; digits == 0 || digits > 19 || n > 1<<63 || n == 1<<63 && !neg ||
		digits > 1 && data[start] == '0' || i < len(data) && (data[i] == '.' || data[i]|0x20 == 'e') {
		return d.fail("an int64")
	}
	if *p = int64(n); neg {
		*p = -*p
	}
	d.off = i
	return nil
}

// str reads a string as a fresh copy.
func (d *appendDecoder) str(p *string) error {
	b, err := d.text()
	*p = string(b)
	return err
}

// text reads a string token: a view of the body for plain ASCII without a
// backslash or control byte, else json.Unmarshal of the token alone, which
// validates it and decodes escapes, surrogates and invalid UTF-8 (U+FFFD).
func (d *appendDecoder) text() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.fail("a string")
	}
	plain := true
	for i := d.off + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			tok := d.data[d.off : i+1]
			if d.off = i + 1; plain {
				return tok[1 : len(tok)-1], nil
			}
			var s string
			err := json.Unmarshal(tok, &s)
			return []byte(s), err
		case c == '\\':
			i++
			plain = false
		case c < ' ' || c >= 0x80:
			plain = false
		}
	}
	return nil, d.fail("a closing quote")
}

// lit consumes s if it comes next.
func (d *appendDecoder) lit(s string) bool {
	if d.peek() != s[0] || len(d.data)-d.off < len(s) || string(d.data[d.off:d.off+len(s)]) != s {
		return false
	}
	d.off += len(s)
	return true
}

// peek skips whitespace and returns the next byte, or 0 at the end — which
// no grammar rule accepts. Every value reader starts with it.
func (d *appendDecoder) peek() byte {
	for ; d.off < len(d.data); d.off++ {
		if c := d.data[d.off]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

func (d *appendDecoder) fail(want string) error {
	return fmt.Errorf("append body: offset %d: want %s", d.off, want)
}
