package store

import "sync"

// Synchronizer is the one write-behind queue: persistence hooks run on the
// serving goroutines at convergence and eviction time — both cold events —
// so all they may do is enqueue; a single background goroutine drains the
// queue in batches into a sink. Two sinks use it: (*Store).PutBatch (append
// each record, fsync once per batch) and the federation replicator (one
// APQXPORT document per batch per peer). Enqueue allocates at most the queue
// append and never blocks on the disk or the network.
type Synchronizer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	write  func(batch []Record) (wrote int, err error)
	queue  []Record
	busy   int // records handed to the sink, not yet acknowledged by it
	closed bool
	done   chan struct{}

	written int
	err     error // first sink error, surfaced by Close
}

// NewSynchronizer starts the background writer over the sink write, which
// is called with one drained batch at a time, never concurrently, and
// reports how many of the batch's records it delivered.
func NewSynchronizer(write func(batch []Record) (wrote int, err error)) *Synchronizer {
	sy := &Synchronizer{write: write, done: make(chan struct{})}
	sy.cond = sync.NewCond(&sy.mu)
	go sy.run()
	return sy
}

// Enqueue schedules rec for the sink. After Close it is a no-op: a record
// raced with shutdown is lost (its query simply re-converges after the next
// restart), never a panic.
func (sy *Synchronizer) Enqueue(rec Record) {
	sy.mu.Lock()
	if !sy.closed {
		sy.queue = append(sy.queue, rec)
		sy.cond.Broadcast()
	}
	sy.mu.Unlock()
}

// QueueDepth reports records accepted but not yet acknowledged by the sink:
// the backlog plus the batch in flight.
func (sy *Synchronizer) QueueDepth() int {
	sy.mu.Lock()
	defer sy.mu.Unlock()
	return len(sy.queue) + sy.busy
}

// Written reports records the sink delivered since start.
func (sy *Synchronizer) Written() int {
	sy.mu.Lock()
	defer sy.mu.Unlock()
	return sy.written
}

// Flush blocks until the sink has acknowledged every record enqueued before
// the call (for the store: written and synced), or the synchronizer is
// closed.
func (sy *Synchronizer) Flush() {
	sy.mu.Lock()
	for (len(sy.queue) > 0 || sy.busy > 0) && !sy.closed {
		sy.cond.Wait()
	}
	sy.mu.Unlock()
}

// Close drains the queue, stops the background writer, and returns the
// first sink error encountered over the synchronizer's lifetime.
// Idempotent. Close does not close the store itself.
func (sy *Synchronizer) Close() error {
	sy.mu.Lock()
	sy.closed = true
	sy.cond.Broadcast()
	sy.mu.Unlock()
	<-sy.done
	sy.mu.Lock()
	defer sy.mu.Unlock()
	return sy.err
}

func (sy *Synchronizer) run() {
	defer close(sy.done)
	for {
		sy.mu.Lock()
		for len(sy.queue) == 0 && !sy.closed {
			sy.cond.Wait()
		}
		if len(sy.queue) == 0 && sy.closed {
			sy.mu.Unlock()
			return
		}
		batch := sy.queue
		sy.queue = nil
		sy.busy = len(batch)
		sy.mu.Unlock()

		wrote, batchErr := sy.write(batch)

		sy.mu.Lock()
		sy.written += wrote
		if batchErr != nil && sy.err == nil {
			sy.err = batchErr
		}
		sy.busy = 0
		sy.cond.Broadcast()
		sy.mu.Unlock()
	}
}
