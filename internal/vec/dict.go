package vec

import (
	"slices"
	"strings"
	"sync"
)

// Dict is a string dictionary: an immutable view of the first Len() values of
// an append-only lineage. Codes are assigned densely in insertion order, which
// keeps dictionary-coded columns cache-friendly and makes LIKE-style
// predicates a dictionary scan followed by a code-membership scan (the
// standard column-store trick the paper's batstr.like relies on).
//
// A column that grows does not re-code: Extend appends the strings it has not
// seen behind every existing view's length and returns a longer view, so a
// code means the same string in every version of the column and a reader of
// an older, shorter view never notices. Only Code grows its receiver in
// place, and is therefore for the builder of a dictionary nothing shares yet.
type Dict struct {
	values []string // lin.values[:Len()]
	lin    *dictLineage

	// matchMu guards matches, the memo of LIKE membership bitmaps computed
	// when the view held matchLen values: the clones of a partitioned LIKE
	// select, and the shards serving one tenant, all ask the same view the
	// same question.
	matchMu  sync.Mutex
	matches  map[matchKey][]bool
	matchLen int
}

// dictLineage is what the views of one dictionary share: the longest view's
// values and the string → code index over them. Once a dictionary is shared
// both are touched only under mu, which only Extend and Lookup take — Value
// and the LIKE scans read their own view's slice, whose elements are never
// written again.
type dictLineage struct {
	mu     sync.Mutex
	values []string
	index  map[string]int64
}

// add appends s, which the lineage does not hold, and returns its code.
func (l *dictLineage) add(s string) int64 {
	c := int64(len(l.values))
	l.values = append(l.values, s)
	l.index[s] = c
	return c
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
	return &Dict{lin: &dictLineage{index: make(map[string]int64)}}
}

// Code interns s and returns its code, growing the receiver in place: only
// for a dictionary still being built, before any vector or view shares it —
// which is why it takes no lock (a generator calls it once per row).
func (d *Dict) Code(s string) int64 {
	l := d.lin
	if c, ok := l.index[s]; ok && c < int64(len(d.values)) {
		return c
	}
	if len(d.values) != len(l.values) {
		panic("vec: Dict.Code on a view its lineage has outgrown")
	}
	// s is new: a code past the view would mean the lineage outgrew it.
	c := l.add(s)
	d.values = l.values
	return c
}

// Extend writes the code of strs[i] to codes[i] and returns the view those
// codes are valid under: the receiver when it already holds every string,
// otherwise a longer view of the same lineage — or, when the receiver is not
// the lineage's longest view (a second child of one parent), of a fork that
// starts as a copy of the receiver. The receiver is never modified.
//
// The dictionary keeps a copy of each string it interns and no reference to
// strs, so the caller's strings may share memory — cut from one buffer, say —
// without the dictionary pinning it.
func (d *Dict) Extend(codes []int64, strs []string) *Dict {
	l := d.lin
	l.mu.Lock()
	defer l.mu.Unlock()
	i, view := 0, int64(len(d.values))
	for ; i < len(strs); i++ {
		c, ok := l.index[strs[i]]
		if !ok || c >= view {
			break
		}
		codes[i] = c
	}
	if i == len(strs) {
		return d
	}
	if len(l.values) != len(d.values) {
		l = &dictLineage{values: slices.Clone(d.values), index: make(map[string]int64, len(d.values))}
		for c, s := range l.values {
			l.index[s] = int64(c)
		}
	}
	for ; i < len(strs); i++ {
		c, ok := l.index[strs[i]]
		if !ok {
			c = l.add(strings.Clone(strs[i]))
		}
		codes[i] = c
	}
	return &Dict{values: l.values, lin: l}
}

// Lookup returns the code for s and whether this view holds it.
func (d *Dict) Lookup(s string) (int64, bool) {
	d.lin.mu.Lock()
	c, ok := d.lin.index[s]
	d.lin.mu.Unlock()
	if !ok || c >= int64(len(d.values)) {
		return 0, false
	}
	return c, true
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
