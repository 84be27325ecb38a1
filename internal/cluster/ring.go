// Package cluster federates apqd daemons into one serving surface: a
// consistent-hash ring routes query fingerprints to owning nodes, an HTTP
// remote-shard client carries them there, per-peer breakers and bounded
// jittered retries absorb node failure, and a write-behind replicator ships
// converged plans peer-to-peer so the node a fingerprint fails over to
// re-converges warm instead of cold.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// vnodes is the number of virtual points each node contributes to the ring.
// More points smooth the ownership split between a handful of real nodes;
// 64 keeps the worst-case imbalance across 2–8 nodes under a few percent
// while the ring stays small enough to rebuild on every membership change.
const vnodes = 64

type ringPoint struct {
	hash uint64
	node string
}

// ring is a consistent-hash ring over node names. Ownership of a
// fingerprint is the first virtual point clockwise from the fingerprint's
// hash; the failover order is the subsequent distinct nodes in ring order.
// The consistent-hashing property is the membership contract: a node
// joining or leaving re-pins only the fingerprints whose owning arc moved,
// never the whole keyspace. Not safe for concurrent mutation — the
// coordinator guards it with its own lock.
type ring struct {
	points  []ringPoint
	members map[string]bool
}

func newRing() *ring {
	return &ring{members: make(map[string]bool)}
}

// ringHash must be deterministic across processes (every node computes
// ownership independently from the same names) and well-distributed over
// similar short strings — vnode labels differ by one suffix character, and
// FNV-style hashes cluster badly on those, skewing ownership several-fold.
// SHA-256 truncated to 64 bits costs a few hundred nanoseconds per routed
// request, far below one HTTP hop.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// add inserts a node's virtual points. Adding a member twice is a no-op.
func (r *ring) add(node string) {
	if r.members[node] {
		return
	}
	r.members[node] = true
	for i := 0; i < vnodes; i++ {
		r.points = append(r.points, ringPoint{ringHash(fmt.Sprintf("%s#%d", node, i)), node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishing odds, but membership must be deterministic
		// across nodes regardless) break by name.
		return r.points[i].node < r.points[j].node
	})
}

// remove deletes a node's virtual points. Removing a non-member is a no-op.
func (r *ring) remove(node string) {
	if !r.members[node] {
		return
	}
	delete(r.members, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// nodes returns the members in sorted order.
func (r *ring) nodes() []string {
	out := make([]string, 0, len(r.members))
	for n := range r.members {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// start is the index of fp's owning point: the first clockwise from fp's
// hash. The ring must not be empty.
func (r *ring) start(fp string) int {
	h := ringHash(fp)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return i % len(r.points)
}

// sequence returns the distinct nodes in ring order starting at fp's
// position: sequence(fp)[0] owns fp, and the rest is the failover order a
// coordinator walks when the owner is down. Every member appears exactly
// once. Empty ring returns nil.
func (r *ring) sequence(fp string) []string {
	if len(r.points) == 0 {
		return nil
	}
	start := r.start(fp)
	seen := make(map[string]bool, len(r.members))
	out := make([]string, 0, len(r.members))
	for i := 0; len(out) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// owner returns the first node in fp's failover sequence that alive admits
// (nil alive = first owner unconditionally, without building the sequence:
// the serve path asks this once per request), or "" on an empty ring or
// when no member is alive.
func (r *ring) owner(fp string, alive func(string) bool) string {
	if alive == nil {
		if len(r.points) == 0 {
			return ""
		}
		return r.points[r.start(fp)].node
	}
	for _, n := range r.sequence(fp) {
		if alive(n) {
			return n
		}
	}
	return ""
}
