package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/sim"
)

// Overload hardening and failure isolation for the serve path (ROADMAP
// item: robustness). Three mechanisms compose, all scoped per shard so one
// sick engine replica cannot take the daemon down:
//
//   - Request deadlines: the request context flows into shard dispatch; a
//     request whose deadline fires while it waits for the engine-ownership
//     semaphore aborts with 503 instead of executing work the client has
//     abandoned.
//   - Load shedding: the waiting line in front of each shard is bounded
//     (Config.MaxShardQueue); excess arrivals fail fast with 503 and a
//     Retry-After header instead of stacking goroutines on the semaphore.
//   - A per-shard health breaker (Config.Breaker): breakerThreshold
//     consecutive failed invocations trip the shard into degraded mode,
//     where it keeps serving last-converged plans (plancache frozen
//     invocations — no exploration, no staleness feedback) until
//     breakerCooldown elapses and a half-open probe request succeeds at full
//     fidelity. A failure is an engine error, a shed, an expired deadline or
//     a closed server; latency is not judged here — virtual-latency drift is
//     the plan cache's band, and wall-clock slowness arrives as deadline
//     expiries.

// The shard breaker's fixed sizing. Like the plan cache's detector
// constants, these are not operator settings: no deployment has needed
// other values.
const (
	breakerThreshold = 5
	breakerCooldown  = 10 * time.Second
)

// ErrOverloaded reports a request shed because its shard's queue was full.
var ErrOverloaded = errors.New("server: shard queue full")

// do runs f holding sh's engine-ownership semaphore: f is the only code
// touching the shard's machine, cache sessions, and virtual clock while it
// runs. Internal callers with no deadline of their own use it directly.
func (s *Server) do(sh *shard, f func()) error {
	return s.doCtx(context.Background(), sh, f)
}

// doCtx is do with a request context: acquisition of the engine-ownership
// semaphore is abortable (deadline, client disconnect) and bounded by the
// shard queue limit. Engine work, once started, always runs to completion —
// the virtual machine cannot be preempted mid-run — so the deadline governs
// the wait, and is re-checked once more between acquisition and dispatch.
func (s *Server) doCtx(ctx context.Context, sh *shard, f func()) error {
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return ErrClosed
	}
	s.inflight.Add(1)
	s.closeMu.RUnlock()
	defer s.inflight.Done()
	queued := sh.waiting.Add(1)
	defer sh.waiting.Add(-1)
	if max := s.cfg.MaxShardQueue; max > 0 && int(queued) > max {
		s.res.shed.Add(1)
		return ErrOverloaded
	}
	select {
	case sh.sem <- struct{}{}:
	case <-ctx.Done():
		s.res.deadlineExpiries.Add(1)
		return fmt.Errorf("server: %w", ctx.Err())
	}
	defer func() { <-sh.sem }()
	if err := ctx.Err(); err != nil {
		// The deadline fired between acquisition and dispatch: don't start
		// engine work for a client that has already given up.
		s.res.deadlineExpiries.Add(1)
		return fmt.Errorf("server: %w", err)
	}
	f()
	return nil
}

// withAllShards runs f holding EVERY shard's engine-ownership semaphore — the
// epoch-publication barrier: while f runs no request is executing anywhere.
// Semaphores are taken in index order (every other path holds at most one,
// so a fixed total order cannot deadlock) and released by defer, so a panic
// in f recovered further up (handle) leaves every shard serving.
func (s *Server) withAllShards(f func()) {
	for _, sh := range s.shards {
		sh.sem <- struct{}{}
	}
	defer func() {
		for _, sh := range s.shards {
			<-sh.sem
		}
	}()
	f()
}

// BreakerState is a breaker's position in the closed → open → half-open
// cycle.
type BreakerState int

const (
	BreakerClosed   BreakerState = iota // healthy: work runs at full fidelity
	BreakerOpen                         // tripped: refuse full-fidelity work until the cooldown elapses
	BreakerHalfOpen                     // probing: one request runs normally; its outcome decides
)

func (st BreakerState) String() string {
	switch st {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// BreakerMode is the breaker's decision for one unit of work.
type BreakerMode int

const (
	BreakerNormal BreakerMode = iota // full fidelity
	BreakerFrozen                    // refused: serve degraded (shard) or route elsewhere (peer)
	BreakerProbe                     // half-open probe: full fidelity, outcome closes or reopens
)

// Breaker is the one health breaker, used per engine shard (a tripped shard
// serves frozen plans) and per federation peer (a tripped peer's fingerprints
// route to the next ring node). Failures are consecutive full-fidelity
// outcomes that failed; frozen outcomes never count (they are the degraded
// mode itself, not evidence). The zero value is a closed breaker; set every
// exported field before first use.
type Breaker struct {
	// Threshold is the consecutive-failure count that trips a closed breaker.
	Threshold int
	// Cooldown is how long a tripped breaker refuses work before admitting a
	// half-open probe, pre-jitter.
	Cooldown time.Duration
	// NowFn and RandFn are the clock and the jitter source: time.Now and
	// rand.Float64 outside tests.
	NowFn  func() time.Time
	RandFn func() float64

	mu       sync.Mutex
	state    BreakerState
	failures int // consecutive, while closed
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	trips    int64
	// jitter scales this open period's cooldown, drawn from [1, 1.5) at
	// trip time: breakers tripped by one correlated event probe back at
	// spread-out times instead of re-converging on the backend in lockstep.
	jitter float64
}

// trip opens the breaker and draws the cooldown jitter for this open period.
// Callers hold b.mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.NowFn()
	b.jitter = 1 + 0.5*b.RandFn()
	b.trips++
}

// Admit decides how the next unit of work runs. Open breakers transition to
// half-open once the jittered cooldown has elapsed, admitting exactly one
// probe at a time; everything else in the meantime is refused.
func (b *Breaker) Admit() BreakerMode {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return BreakerNormal
	case BreakerOpen:
		scale := b.jitter
		if scale < 1 {
			scale = 1
		}
		if b.NowFn().Sub(b.openedAt) < time.Duration(float64(b.Cooldown)*scale) {
			return BreakerFrozen
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return BreakerProbe
	default: // half-open
		if b.probing {
			return BreakerFrozen
		}
		b.probing = true
		return BreakerProbe
	}
}

// Record feeds one admitted unit of work's outcome back.
func (b *Breaker) Record(mode BreakerMode, failed bool) {
	if mode == BreakerFrozen {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if failed {
		if mode == BreakerProbe {
			// The probe failed: back to fully open, cooldown restarted
			// (with a freshly drawn jitter).
			b.probing = false
			b.trip()
			return
		}
		b.failures++
		if b.state == BreakerClosed && b.failures >= b.Threshold {
			b.failures = 0
			b.trip()
		}
		return
	}
	if mode == BreakerProbe {
		b.state = BreakerClosed
		b.probing = false
	}
	b.failures = 0
}

// Reset closes the breaker on out-of-band evidence of health (the federation
// coordinator's background /healthz probe).
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.probing = false
	b.failures = 0
}

// Snapshot reads the breaker for /stats and /healthz.
func (b *Breaker) Snapshot() (state BreakerState, trips int64, failures int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.trips, b.failures
}

// InjectFault schedules a machine fault on one shard — the chaos entry point
// tests drive mid-run core loss through. The event
// reaches the simulated machine under the shard's engine-ownership boundary;
// it takes effect at its virtual AtNs (a past AtNs means immediately, at the
// start of the next run).
func (s *Server) InjectFault(shard int, ev sim.FaultEvent) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("server: no shard %d (pool of %d)", shard, len(s.shards))
	}
	sh := s.shards[shard]
	return s.do(sh, func() { sh.eng.Machine().InjectFault(ev) })
}

// BreakerInfo is one shard breaker's slice of the /stats resilience block.
type BreakerInfo struct {
	Shard int    `json:"shard"`
	State string `json:"state"`
	// Trips counts closed→open transitions (including failed probes).
	Trips int64 `json:"trips"`
	// Failures is the current consecutive-failure count while closed.
	Failures int `json:"consecutive_failures,omitempty"`
}

// ResilienceStats is the GET /stats "resilience" block: fault-injection and
// overload-hardening counters aggregated across the shard pool.
type ResilienceStats struct {
	// FaultsInjected and CoresLost aggregate the shard machines' fault
	// counters (scheduled plans and InjectFault both land here).
	FaultsInjected int `json:"faults_injected"`
	CoresLost      int `json:"cores_lost"`
	// Reconvergences counts staleness-triggered convergence reopens across
	// all shard caches.
	Reconvergences int64 `json:"reconvergences"`
	// DeadlineExpiries counts requests aborted by their deadline while
	// waiting for (or just after acquiring) a shard.
	DeadlineExpiries int64 `json:"deadline_expiries"`
	// ShedRequests counts requests refused because a shard queue was full.
	ShedRequests int64 `json:"shed_requests"`
	// PanicsRecovered counts handler panics converted to 500s.
	PanicsRecovered int64 `json:"panics_recovered"`
	// Breakers reports each shard's health breaker.
	Breakers []BreakerInfo `json:"breakers,omitempty"`
}

// ShardHealth is one shard's row in the GET /healthz reply.
type ShardHealth struct {
	Shard   int    `json:"shard"`
	Breaker string `json:"breaker"`
	// Degraded is true while the breaker is not closed: the shard serves
	// learned plans only.
	Degraded bool `json:"degraded"`
}

// HealthResponse is the GET /healthz reply. OK (and a 200) requires the
// server open and every shard breaker closed; a degraded shard flips the
// status to 503 so load balancers rotate traffic away while it recovers.
type HealthResponse struct {
	OK     bool          `json:"ok"`
	Shards []ShardHealth `json:"shards,omitempty"`
	// StoreQueueDepth is the write-behind synchronizer backlog (absent
	// without a persistent store).
	StoreQueueDepth *int `json:"store_queue_depth,omitempty"`
}
