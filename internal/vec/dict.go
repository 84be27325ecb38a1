package vec

import (
	"strings"
	"sync"
)

// Dict is an append-only string dictionary. Codes are assigned densely in
// insertion order, which keeps dictionary-coded columns cache-friendly and
// makes LIKE-style predicates a dictionary scan followed by a code-membership
// scan (the standard column-store trick the paper's batstr.like relies on).
type Dict struct {
	values []string
	index  map[string]int64

	// matchMu guards matches, the memo of LIKE membership bitmaps computed
	// when the dictionary held matchLen values: the clones of a partitioned
	// LIKE select, and the shards serving one tenant, all ask the same
	// dictionary the same question.
	matchMu  sync.Mutex
	matches  map[matchKey][]bool
	matchLen int
}

// maxMatchMemo bounds the memo; plans carry a handful of distinct patterns,
// and a caller cycling through more than this recomputes as it always did.
const maxMatchMemo = 16

type matchKey struct {
	pattern string
	prefix  bool
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{index: make(map[string]int64)}
}

// Code interns s and returns its code.
func (d *Dict) Code(s string) int64 {
	if c, ok := d.index[s]; ok {
		return c
	}
	c := int64(len(d.values))
	d.values = append(d.values, s)
	d.index[s] = c
	return c
}

// Lookup returns the code for s and whether it is present.
func (d *Dict) Lookup(s string) (int64, bool) {
	c, ok := d.index[s]
	return c, ok
}

// Value returns the string for code c.
func (d *Dict) Value(c int64) string { return d.values[c] }

// Len reports the number of distinct values.
func (d *Dict) Len() int { return len(d.values) }

// MatchSubstring returns the set of codes whose value contains pattern, as a
// dense membership bitmap indexed by code. A LIKE '%pat%' select over a
// dictionary-coded column is a scan over this bitmap. The bitmap is memoized
// per pattern and shared between callers, who must treat it as read-only.
func (d *Dict) MatchSubstring(pattern string) []bool {
	return d.match(matchKey{pattern: pattern}, strings.Contains)
}

// MatchPrefix returns the membership bitmap for LIKE 'pat%'; see
// MatchSubstring for the sharing contract.
func (d *Dict) MatchPrefix(pattern string) []bool {
	return d.match(matchKey{pattern: pattern, prefix: true}, strings.HasPrefix)
}

// match serves key's bitmap from the memo, computing it on first use. The
// memo starts over when the dictionary has grown since it was filled (a
// bitmap always covers every code assigned when it was returned) and when a
// new pattern finds it full.
func (d *Dict) match(key matchKey, matches func(s, pattern string) bool) []bool {
	d.matchMu.Lock()
	defer d.matchMu.Unlock()
	if d.matches == nil || d.matchLen != len(d.values) {
		d.matches, d.matchLen = make(map[matchKey][]bool), len(d.values)
	}
	if out, ok := d.matches[key]; ok {
		return out
	}
	if len(d.matches) >= maxMatchMemo {
		clear(d.matches)
	}
	out := make([]bool, len(d.values))
	for i, v := range d.values {
		out[i] = matches(v, key.pattern)
	}
	d.matches[key] = out
	return out
}
