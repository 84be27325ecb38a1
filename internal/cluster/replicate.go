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
	// QueueDepth is the write-behind backlog not yet shipped.
	QueueDepth int `json:"queue_depth"`
	// ReplicaSet is how many distinct sessions (tenant+fingerprint) this
	// node can seed a joining or recovering peer with.
	ReplicaSet int `json:"replica_set"`
	// RecordsSent counts record deliveries (records × peers).
	RecordsSent int64 `json:"records_sent"`
	// RecordsApplied counts replicated records this node accepted from
	// peers and applied to its own cache.
	RecordsApplied int64 `json:"records_applied"`
	// SendFailures counts batches a peer never acknowledged (retries
	// exhausted or breaker open); the peer catches up via a sync push when
	// its breaker closes.
	SendFailures int64 `json:"send_failures"`
	// SyncPushes counts full replica-set pushes (peer join, peer recovery).
	SyncPushes int64 `json:"sync_pushes"`
}

// replicator ships convergence records to every peer, write-behind: the
// serve path enqueues and returns, a single background goroutine drains the
// queue in batches, encodes each batch once as an APQXPORT document (the
// same bytes the plan-export surface writes to disk) and POSTs it to each
// live peer's /cluster/replicate. It also keeps the replica set — the
// latest record per session — to push whole to a peer that joins or
// recovers, covering everything the peer missed. The shape deliberately
// mirrors the store.Synchronizer: convergence is rare and replication must
// never sit on the serve path.
type replicator struct {
	c    *Coordinator
	mu   sync.Mutex
	cond *sync.Cond
	// queue is the unshipped backlog; set maps tenant+fingerprint to the
	// newest record for that session.
	queue  []store.Record
	set    map[string]store.Record
	closed bool
	done   chan struct{}

	sent     atomic.Int64
	applied  atomic.Int64
	failures atomic.Int64
	syncs    atomic.Int64
}

func newReplicator(c *Coordinator) *replicator {
	r := &replicator{c: c, set: make(map[string]store.Record), done: make(chan struct{})}
	r.cond = sync.NewCond(&r.mu)
	go r.run()
	return r
}

// replicaKey identifies a session: the fingerprint already encodes the DB
// identity, but two tenants over identical datasets share fingerprints, so
// the tenant tag disambiguates.
func replicaKey(rec *store.Record) string {
	return rec.Tenant + "\x00" + rec.Fingerprint
}

// enqueue hands one record to the write-behind goroutine; never blocks on
// the network.
func (r *replicator) enqueue(rec store.Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.queue = append(r.queue, rec)
	r.set[replicaKey(&rec)] = rec
	r.cond.Signal()
}

func (r *replicator) run() {
	defer close(r.done)
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && !r.closed {
			r.cond.Wait()
		}
		if len(r.queue) == 0 && r.closed {
			r.mu.Unlock()
			return
		}
		batch := r.queue
		r.queue = nil
		r.mu.Unlock()
		// A burst of convergences coalesces into one document per peer.
		r.broadcast(batch)
	}
}

func (r *replicator) broadcast(batch []store.Record) {
	payload, err := store.EncodeRecords(batch)
	if err != nil {
		r.failures.Add(1)
		return
	}
	for _, p := range r.c.peerList() {
		if st, _, _ := p.brk.Snapshot(); st != server.BreakerClosed {
			// The peer is deaf; don't stall the queue proving it. The sync
			// push on breaker close replays everything it missed.
			r.failures.Add(1)
			continue
		}
		r.send(p, payload, len(batch))
	}
}

// send delivers one document to one peer with the coordinator's bounded
// jittered retries.
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
	}
}

// syncTo pushes the full replica set to one peer — the join seed and the
// recovery catch-up. Sorted by session key so identical sets encode to
// identical documents.
func (r *replicator) syncTo(p *peerState) {
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
	depth, set := len(r.queue), len(r.set)
	r.mu.Unlock()
	return ReplicationStats{
		QueueDepth:     depth,
		ReplicaSet:     set,
		RecordsSent:    r.sent.Load(),
		RecordsApplied: r.applied.Load(),
		SendFailures:   r.failures.Load(),
		SyncPushes:     r.syncs.Load(),
	}
}

// close drains the queue (one final best-effort broadcast) and stops the
// goroutine.
func (r *replicator) close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	<-r.done
}
