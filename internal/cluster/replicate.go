package cluster

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/server"
	"repro/internal/store"
)

// ReplicationStats is the replicator's slice of the cluster stats block.
type ReplicationStats struct {
	// QueueDepth is the write-behind backlog not yet shipped, the batch in
	// flight to the peers included — replication lag against a slow peer.
	QueueDepth int `json:"queue_depth"`
	// ReplicaSet is how many distinct sessions (tenant+fingerprint) this
	// node can seed a joining or recovering peer with.
	ReplicaSet int `json:"replica_set"`
	// RecordsSent counts record deliveries (records × peers).
	RecordsSent int64 `json:"records_sent"`
	// RecordsApplied counts replicated records this node accepted from
	// peers and applied to its own cache.
	RecordsApplied int64 `json:"records_applied"`
	// SendFailures counts deliveries a peer never acknowledged (retries
	// exhausted, or skipped while its breaker was open); the peer's next
	// delivery is a sync push of the whole replica set.
	SendFailures int64 `json:"send_failures"`
	// SyncPushes counts full replica-set pushes (peer join, peer recovery,
	// catch-up after a missed delivery).
	SyncPushes int64 `json:"sync_pushes"`
}

// replicator ships convergence records to every peer, write-behind: the
// serve path enqueues and returns, the shared store.Synchronizer queue
// drains in batches on its one background goroutine, and broadcast — the
// queue's sink — encodes each batch once as an APQXPORT document (the same
// bytes the plan-export surface writes to disk) and POSTs it to each live
// peer's /cluster/replicate. The replicator itself keeps only the replica
// set — the latest record per session — to push whole to a peer that joins,
// recovers, or missed a delivery, covering everything the peer missed.
type replicator struct {
	c *Coordinator
	q *store.Synchronizer

	// set maps tenant+fingerprint to the newest record for that session.
	mu  sync.Mutex
	set map[string]store.Record

	sent     atomic.Int64
	applied  atomic.Int64
	failures atomic.Int64
	syncs    atomic.Int64
}

func newReplicator(c *Coordinator) *replicator {
	r := &replicator{c: c, set: make(map[string]store.Record)}
	r.q = store.NewSynchronizer(r.broadcast)
	return r
}

// replicaKey identifies a session: the fingerprint already encodes the DB
// identity, but two tenants over identical datasets share fingerprints, so
// the tenant tag disambiguates.
func replicaKey(rec *store.Record) string {
	return rec.Tenant + "\x00" + rec.Fingerprint
}

// enqueue hands one record to the write-behind queue; never blocks on the
// network.
func (r *replicator) enqueue(rec store.Record) {
	r.mu.Lock()
	r.set[replicaKey(&rec)] = rec
	r.mu.Unlock()
	r.q.Enqueue(rec)
}

// broadcast is the queue's sink: a burst of convergences coalesces into one
// document per peer. Delivery is per peer and best-effort (counted in sent /
// failures; a peer that missed one gets the whole replica set next), so the
// only batch-level error is a document that cannot be encoded.
func (r *replicator) broadcast(batch []store.Record) (int, error) {
	payload, err := store.EncodeRecords(batch)
	if err != nil {
		r.failures.Add(1)
		return 0, err
	}
	for _, p := range r.c.peerList() {
		if st, _, _ := p.brk.Snapshot(); st != server.BreakerClosed {
			// The peer is deaf; don't stall the queue proving it. The sync
			// push on breaker close replays everything it missed.
			r.failures.Add(1)
			p.behind.Store(true)
			continue
		}
		if p.behind.Load() {
			// The set already holds this batch.
			r.syncTo(p)
			continue
		}
		r.send(p, payload, len(batch))
	}
	return len(batch), nil
}

// send delivers one document to one peer with the coordinator's bounded
// jittered retries. A failed delivery marks the peer behind.
func (r *replicator) send(p *peerState, payload []byte, n int) {
	sent := false
	r.c.attempts(context.Background(), func(ctx context.Context, _ int) bool {
		sent = p.rem.replicate(ctx, payload) == nil
		return sent
	})
	if sent {
		r.sent.Add(int64(n))
	} else {
		r.failures.Add(1)
		p.behind.Store(true)
	}
}

// syncTo pushes the full replica set to one peer — the join seed, the
// recovery catch-up and the delivery after a missed one. Sorted by session
// key so identical sets encode to identical documents. It clears the peer's
// behind mark before it takes the set, so a delivery missed meanwhile, or
// this push failing, marks the peer again.
func (r *replicator) syncTo(p *peerState) {
	p.behind.Store(false)
	r.mu.Lock()
	if len(r.set) == 0 {
		r.mu.Unlock()
		return
	}
	keys := make([]string, 0, len(r.set))
	for k := range r.set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recs := make([]store.Record, 0, len(keys))
	for _, k := range keys {
		recs = append(recs, r.set[k])
	}
	r.mu.Unlock()
	payload, err := store.EncodeRecords(recs)
	if err != nil {
		r.failures.Add(1)
		return
	}
	r.syncs.Add(1)
	r.send(p, payload, len(recs))
}

func (r *replicator) stats() ReplicationStats {
	r.mu.Lock()
	set := len(r.set)
	r.mu.Unlock()
	return ReplicationStats{
		QueueDepth:     r.q.QueueDepth(),
		ReplicaSet:     set,
		RecordsSent:    r.sent.Load(),
		RecordsApplied: r.applied.Load(),
		SendFailures:   r.failures.Load(),
		SyncPushes:     r.syncs.Load(),
	}
}
