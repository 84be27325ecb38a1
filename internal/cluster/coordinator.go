package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// Peer names one remote daemon in the federation.
type Peer struct {
	// Name is the node's stable identity on the hash ring. Every node in
	// the federation must agree on every name — ring ownership is computed
	// independently on each node from the same names.
	Name string `json:"name"`
	// URL is the peer's base address (http://host:port).
	URL string `json:"url"`
}

// Config shapes a federation coordinator: who this node is and whom it
// starts federated with. Timing is the coordinator's own (tuning).
type Config struct {
	// Self is this node's own ring name (required).
	Self string
	// Peers is the initial remote membership; join/leave mutate it live.
	Peers []Peer
}

// tuning is the coordinator's fixed timing, not configuration: New always
// uses defaultTuning, and only this package's tests build another (a fake
// clock, a pinned jitter, no retries, a prober that never ticks).
type tuning struct {
	peerTimeout     time.Duration // bounds each remote attempt
	retries         int           // same-peer retries before failing over
	retryBase       time.Duration // first retry's backoff; doubles per retry, jittered, capped at 1s
	breakerFailures int           // consecutive failures that open a peer's breaker
	breakerCooldown time.Duration // how long an open peer breaker holds before a probe, pre-jitter
	probeInterval   time.Duration // health-probe cadence for breaker-open peers
	now             func() time.Time
	rand            func() float64 // jitter source
}

var defaultTuning = tuning{
	peerTimeout:     2 * time.Second,
	retries:         2,
	retryBase:       25 * time.Millisecond,
	breakerFailures: 3,
	breakerCooldown: 2 * time.Second,
	probeInterval:   500 * time.Millisecond,
	now:             time.Now,
	rand:            rand.Float64,
}

// Coordinator federates the local daemon with its peers as its
// server.Federation: its route stage sends each /query to the fingerprint's
// owning node on the consistent-hash ring, retries remote failures with
// jittered exponential backoff, trips a per-peer breaker after repeated
// failure — the same server.Breaker the engine shards use, guarding a whole
// node instead of one replica — and fails the fingerprint over to the next
// surviving node in ring order. A write-behind replicator ships every
// convergence record to the peers, so the failover target serves the
// re-pinned fingerprint from a warm replicated plan instead of re-converging
// cold.
type Coordinator struct {
	self string
	tun  tuning

	randMu sync.Mutex // guards tun.rand (see rand)

	mu    sync.RWMutex
	ring  *ring
	peers map[string]*peerState

	repl      *replicator
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	servedLocal atomic.Int64
	forwarded   atomic.Int64
	retried     atomic.Int64
	failovers   atomic.Int64
	recovered   atomic.Int64
	// resultBytesProxied counts APQRESULT payload bytes relayed verbatim
	// from remote owners to this node's clients.
	resultBytesProxied atomic.Int64
}

// peerState is one remote node: its client and its health breaker.
// Consecutive serve-path failures against the peer open the breaker, an open
// breaker routes the peer's fingerprints to the next ring node without a
// network hop, and after a jittered cooldown one request at a time is
// admitted half-open — success (or the background health probe) closes it,
// returning ownership.
type peerState struct {
	rem *Remote
	brk server.Breaker
	// behind marks a peer that missed a replication delivery (it failed, or
	// was skipped while the breaker refused): its next delivery is the whole
	// replica set, and a delivered one clears the mark.
	behind atomic.Bool
}

// New builds a coordinator, to be handed to the local daemon as its
// server.Config.Federation. Close it before the daemon.
func New(cfg Config) (*Coordinator, error) {
	return newCoordinator(cfg, defaultTuning)
}

// newCoordinator is New with the timing given: the seam the package's tests
// use.
func newCoordinator(cfg Config, tun tuning) (*Coordinator, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: Self node name is required")
	}
	c := &Coordinator{
		self:  cfg.Self,
		tun:   tun,
		ring:  newRing(),
		peers: make(map[string]*peerState),
		stop:  make(chan struct{}),
	}
	c.ring.add(c.self)
	c.repl = newReplicator(c)
	for _, p := range cfg.Peers {
		if _, err := c.Join(p.Name, p.URL); err != nil {
			c.repl.q.Close()
			return nil, err
		}
	}
	c.wg.Add(1)
	go c.probeLoop()
	return c, nil
}

// Observe feeds one convergence record into the write-behind replicator.
func (c *Coordinator) Observe(rec store.Record) { c.repl.enqueue(rec) }

// Applied counts replicated records the local intake accepted.
func (c *Coordinator) Applied(n int) { c.repl.applied.Add(int64(n)) }

// Close stops the prober and the replicator (flushing its queue best-effort)
// and releases peer connections. The local daemon is not closed.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.stop)
		c.wg.Wait()
		// The queue's only error is an unencodable batch, already counted
		// in send_failures.
		c.repl.q.Close()
		for _, p := range c.peerList() {
			p.rem.Retire()
		}
	})
}

// rand draws from the jitter seam; the lock makes a deterministic test seam
// safe under the prober/replicator/serve-path concurrency.
func (c *Coordinator) rand() float64 {
	c.randMu.Lock()
	defer c.randMu.Unlock()
	return c.tun.rand()
}

// Join adds a node to the ring and pushes it the full replica set, so a
// joining (or rejoining) node starts warm. Fingerprints whose ring arc the
// newcomer now owns re-pin to it on their next request; all others keep
// their placement — the consistent-hashing minimal-movement property. It
// returns the membership after the join.
func (c *Coordinator) Join(name, url string) ([]string, error) {
	if name == "" || url == "" {
		return nil, errors.New("cluster: peer needs both a name and a url")
	}
	if name == c.self {
		return nil, fmt.Errorf("cluster: peer %q collides with this node's own name", name)
	}
	c.mu.Lock()
	if _, ok := c.peers[name]; ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: peer %q already joined", name)
	}
	p := &peerState{
		rem: NewRemote(name, url),
		brk: server.Breaker{Threshold: c.tun.breakerFailures, Cooldown: c.tun.breakerCooldown, NowFn: c.tun.now, RandFn: c.rand},
	}
	c.peers[name] = p
	c.ring.add(name)
	c.mu.Unlock()
	c.repl.syncTo(p)
	return c.Nodes(), nil
}

// Leave detaches a node: its virtual points leave the ring, so the
// fingerprints it owned re-pin to their next-in-sequence survivors. It
// returns the membership after the leave.
func (c *Coordinator) Leave(name string) ([]string, error) {
	c.mu.Lock()
	p, ok := c.peers[name]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: unknown peer %q", name)
	}
	delete(c.peers, name)
	c.ring.remove(name)
	c.mu.Unlock()
	p.rem.Retire()
	return c.Nodes(), nil
}

func (c *Coordinator) peerList() []*peerState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*peerState, 0, len(c.peers))
	for _, p := range c.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rem.name < out[j].rem.name })
	return out
}

// Route is the daemon's /query federation stage (server.Federation). A
// request a peer already routed serves here untouched — it is never routed
// again — and so does one whose fingerprint this node owns. Anything else
// walks fp's ring sequence: the owner first, then the failover order. A node
// is skipped while its breaker refuses work (open, or half-open with its one
// probe already in flight); a remote owner that fails its bounded retries
// fails the fingerprint over to the next survivor. The local node always
// terminates the walk — worst case every peer is down and the fingerprint
// serves here from its replicated warm seed.
func (c *Coordinator) Route(w http.ResponseWriter, r *http.Request, body []byte, fp string) bool {
	var walk []*peerState // the ring sequence up to this node
	c.mu.RLock()
	if r.Header.Get(server.ForwardedHeader) == "" && c.ring.owner(fp, nil) != c.self {
		for _, node := range c.ring.sequence(fp) {
			if node == c.self {
				break
			}
			walk = append(walk, c.peers[node])
		}
	}
	c.mu.RUnlock()
	for i, p := range walk {
		mode := p.brk.Admit()
		if mode == server.BreakerFrozen {
			continue
		}
		if c.forward(w, r, body, p, mode) {
			if i > 0 {
				c.failovers.Add(1)
			}
			c.forwarded.Add(1)
			return true
		}
	}
	if len(walk) > 0 {
		c.failovers.Add(1)
	}
	c.servedLocal.Add(1)
	return false
}

// forward is the one forward path: it proxies the client's /query to peer p
// and relays the owner's reply — status, Content-Type, Retry-After and body
// bytes untouched, JSON and APQRESULT alike — so a forwarded reply is
// bit-identical to the owner-local one. Any reply below 500 means the owner
// answered: a 200 counts as a breaker success, and a 4xx (unknown tenant,
// over quota, bad spec) is the request's own fault — it is relayed, never
// failed over, or a bad request would cascade across every node in the
// ring, and it feeds the breaker only to settle a half-open probe. A 5xx or
// a transport error means the node is the problem: it counts a breaker
// failure and is retried, and a breaker that opens mid-retry aborts the loop
// so failover starts without burning the remaining attempts. It reports
// whether a reply was relayed; false sends the caller to the next ring node.
func (c *Coordinator) forward(w http.ResponseWriter, r *http.Request, body []byte, p *peerState, mode server.BreakerMode) (relayed bool) {
	c.attempts(r.Context(), func(ctx context.Context, n int) (stop bool) {
		if n > 0 {
			c.retried.Add(1)
		}
		hresp, err := p.rem.forward(ctx, r.Header, body)
		if err == nil {
			defer hresp.Body.Close()
			if hresp.StatusCode < http.StatusInternalServerError {
				if hresp.StatusCode == http.StatusOK || mode == server.BreakerProbe {
					p.brk.Record(mode, false)
				}
				for _, h := range [...]string{"Content-Type", "Retry-After"} {
					if v := hresp.Header.Get(h); v != "" {
						w.Header().Set(h, v)
					}
				}
				w.WriteHeader(hresp.StatusCode)
				// The attempt's deadline stays armed while the stream relays.
				sent, _ := io.Copy(w, hresp.Body)
				if hresp.Header.Get("Content-Type") == server.ResultContentType {
					c.resultBytesProxied.Add(sent)
				}
				relayed = true
				return true
			}
		}
		p.brk.Record(mode, true)
		st, _, _ := p.brk.Snapshot()
		return st != server.BreakerClosed
	})
	return relayed
}

// attempts is the one retry loop, shared by request forwarding and plan
// replication: it calls try up to 1+retries times, each call under its own
// peerTimeout deadline beneath ctx, sleeping base·2^(n-1) scaled by the
// breaker-style 1+0.5·rand() jitter before retry n, until try reports stop or
// ctx (or the coordinator) dies mid-backoff.
func (c *Coordinator) attempts(ctx context.Context, try func(actx context.Context, n int) (stop bool)) {
	for n := 0; n <= c.tun.retries; n++ {
		if n > 0 && !c.backoff(ctx, n) {
			return
		}
		actx, cancel := context.WithTimeout(ctx, c.tun.peerTimeout)
		stop := try(actx, n)
		cancel()
		if stop {
			return
		}
	}
}

// backoff sleeps retry attempt n's delay (n is 1-based); false means the
// request's context or the coordinator died first.
func (c *Coordinator) backoff(ctx context.Context, n int) bool {
	d := c.tun.retryBase << (n - 1)
	if d > time.Second {
		d = time.Second
	}
	d = time.Duration(float64(d) * (1 + 0.5*c.rand()))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	case <-c.stop:
		return false
	}
}

// probeLoop pings breaker-open peers' /healthz in the background. A healthy
// reply closes the breaker — ring ownership re-pins back — and re-seeds the
// recovered peer with the full replica set, covering every record it was
// deaf to while down.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.tun.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		for _, p := range c.peerList() {
			if st, _, _ := p.brk.Snapshot(); st == server.BreakerClosed {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), c.tun.peerTimeout)
			h, err := p.rem.Health(ctx)
			cancel()
			if err == nil && h.OK {
				p.brk.Reset()
				c.recovered.Add(1)
				c.repl.syncTo(p)
			}
		}
	}
}

// Nodes returns the current ring membership, sorted, self included.
func (c *Coordinator) Nodes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.nodes()
}

// PeerStatus is one remote node's health as this coordinator sees it.
type PeerStatus struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// Breaker is "closed" (serving), "open" (failed over away) or
	// "half-open" (one probe request in flight, the rest failed over).
	Breaker string `json:"breaker"`
	// Failures is the current consecutive-failure count while closed.
	Failures int `json:"consecutive_failures,omitempty"`
	// Trips counts breaker openings since the peer joined (failed half-open
	// probes included).
	Trips int64 `json:"trips"`
}

// Stats is the GET /stats "cluster" block.
type Stats struct {
	Self  string       `json:"self"`
	Nodes []string     `json:"nodes"`
	Peers []PeerStatus `json:"peers"`
	// ServedLocal counts requests this node answered from its own pool
	// (owned here, forwarded here by a peer, or failed over to here).
	ServedLocal int64 `json:"served_local"`
	// Forwarded counts requests routed to a remote owner.
	Forwarded int64 `json:"forwarded"`
	// Retries counts remote attempts beyond each request's first.
	Retries int64 `json:"retries"`
	// Failovers counts requests served by a node other than the ring owner.
	Failovers int64 `json:"failovers"`
	// PeersRecovered counts breaker-open peers the health probe brought
	// back.
	PeersRecovered int64 `json:"peers_recovered"`
	// ResultBytesProxied counts APQRESULT payload bytes relayed verbatim
	// from remote owners to this node's clients.
	ResultBytesProxied int64            `json:"result_bytes_proxied"`
	Replication        ReplicationStats `json:"replication"`
}

// Stats snapshots the coordinator: the local daemon's GET /stats "cluster"
// block and GET /admin/peers reply (ClusterStats).
func (c *Coordinator) Stats() Stats {
	s := Stats{
		Self:               c.self,
		Nodes:              c.Nodes(),
		ServedLocal:        c.servedLocal.Load(),
		Forwarded:          c.forwarded.Load(),
		Retries:            c.retried.Load(),
		Failovers:          c.failovers.Load(),
		PeersRecovered:     c.recovered.Load(),
		ResultBytesProxied: c.resultBytesProxied.Load(),
		Replication:        c.repl.stats(),
	}
	for _, p := range c.peerList() {
		st, trips, failures := p.brk.Snapshot()
		s.Peers = append(s.Peers, PeerStatus{Name: p.rem.name, URL: p.rem.base, Breaker: st.String(), Failures: failures, Trips: trips})
	}
	return s
}

// ClusterStats is Stats for server.Federation.
func (c *Coordinator) ClusterStats() any { return c.Stats() }
