package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// TestHalfOpenPeerAdmitsOneProbe drives the peer breaker through the
// coordinator's route loop against a scripted peer: a 5xx trips it (threshold
// 1) and the request fails over to the next ring node; while open the peer is
// skipped without a network hop; after the cooldown exactly one request is
// forwarded as the half-open probe, and a concurrent request for the same
// peer falls through to the next ring node instead of piling onto a node that
// may still be dead; the probe's verbatim-relayed 200 closes the breaker.
func TestHalfOpenPeerAdmitsOneProbe(t *testing.T) {
	var (
		hits    atomic.Int64
		healthy atomic.Bool
		entered = make(chan struct{})
		release = make(chan struct{})
	)
	const peerReply = `{"query":"scripted-peer","state":"converged"}` + "\n"
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/query" {
			return
		}
		if r.Header.Get("X-APQ-Forwarded") != "1" {
			t.Error("forwarded request lost its X-APQ-Forwarded marker")
		}
		hits.Add(1)
		if !healthy.Load() {
			http.Error(w, "scripted failure", http.StatusInternalServerError)
			return
		}
		if hits.Load() == 2 {
			close(entered)
			<-release
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, peerReply)
	}))
	defer peer.Close()

	var nowNs atomic.Int64
	nowNs.Store(time.Unix(1000, 0).UnixNano())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tun := quietTuning()
	tun.retries = 0
	tun.breakerFailures = 1
	tun.breakerCooldown = time.Second
	tun.now = func() time.Time { return time.Unix(0, nowNs.Load()) }
	tun.rand = func() float64 { return 0 }
	a := startNode(t, "a", ln, []Peer{{Name: "b", URL: peer.URL}}, tun)
	req := remoteOwnedQuery(t, a.coord, "", "b")
	client := &http.Client{}
	peerStatus := func() PeerStatus { return a.coord.Stats().Peers[0] }
	// servedLocally posts one request and asserts node a answered it itself.
	servedLocally := func(step string) {
		t.Helper()
		before := a.coord.Stats()
		raw, _ := postRaw(t, client, a.url, req, nil)
		if bytes.Equal(raw, []byte(peerReply)) {
			t.Fatalf("%s: reply came from the peer", step)
		}
		after := a.coord.Stats()
		if after.ServedLocal != before.ServedLocal+1 || after.Failovers != before.Failovers+1 || after.Forwarded != before.Forwarded {
			t.Fatalf("%s: not a local failover serve: %+v -> %+v", step, before, after)
		}
	}

	servedLocally("owner replies 5xx")
	if st := peerStatus(); st.Breaker != "open" || st.Trips != 1 || hits.Load() != 1 {
		t.Fatalf("after the 5xx: %+v, peer hits %d", st, hits.Load())
	}
	servedLocally("breaker open")
	if hits.Load() != 1 {
		t.Fatal("an open breaker still forwarded to the peer")
	}

	// Cooldown elapses; the peer is healthy again but slow to answer.
	nowNs.Add(int64(time.Second))
	healthy.Store(true)
	probe := make(chan []byte, 1)
	go func() {
		body, _ := json.Marshal(req)
		resp, err := client.Post(a.url+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			probe <- nil
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		probe <- raw
	}()
	<-entered
	if st := peerStatus(); st.Breaker != "half-open" {
		t.Fatalf("with the probe in flight: %+v", st)
	}
	servedLocally("probe in flight")
	if hits.Load() != 2 {
		t.Fatalf("peer saw %d requests, want exactly the one in-flight probe after the 5xx", hits.Load())
	}
	close(release)
	if got := <-probe; string(got) != peerReply {
		t.Fatalf("probe reply was not the owner's bytes verbatim: %q", got)
	}
	if st := peerStatus(); st.Breaker != "closed" || st.Trips != 1 {
		t.Fatalf("after the successful probe: %+v", st)
	}
	if raw, _ := postRaw(t, client, a.url, req, nil); string(raw) != peerReply || hits.Load() != 3 {
		t.Fatalf("closed breaker did not forward: reply %q, peer hits %d", raw, hits.Load())
	}
}

// TestBackoffDelays: the jittered exponential schedule doubles per attempt
// from retryBase and honours context cancellation.
func TestBackoffDelays(t *testing.T) {
	c := &Coordinator{
		tun: tuning{
			retryBase: 10 * time.Millisecond,
			rand:      func() float64 { return 0 }, // jitter scale pinned to 1.0
		},
		stop: make(chan struct{}),
	}
	for n, want := range map[int]time.Duration{1: 10 * time.Millisecond, 2: 20 * time.Millisecond, 3: 40 * time.Millisecond} {
		start := time.Now()
		if !c.backoff(context.Background(), n) {
			t.Fatalf("backoff(%d) aborted without cancellation", n)
		}
		if got := time.Since(start); got < want {
			t.Fatalf("backoff(%d) slept %v, want >= %v", n, got, want)
		}
	}
	// The cap: attempt 30 would be base<<29 without it.
	start := time.Now()
	if !c.backoff(context.Background(), 30) {
		t.Fatal("capped backoff aborted without cancellation")
	}
	if got := time.Since(start); got > 5*time.Second {
		t.Fatalf("backoff cap failed: slept %v", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if c.backoff(ctx, 1) {
		t.Fatal("backoff must report cancellation")
	}
}

// brokenBody yields the start of a document, then a read error that is not
// a size overrun — a client that went away mid-body.
type brokenBody struct{ sent bool }

func (b *brokenBody) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		return copy(p, "APQXPORT"), nil
	}
	return 0, errors.New("connection reset mid-body")
}

// TestReplicateBodyErrors: the replication intake answers 413 only for a
// body past its size limit (16 MiB); a body whose read fails partway is a
// 400. The intake reads through the daemon's one body reader.
func TestReplicateBodyErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a := startNode(t, "a", ln, nil, quietTuning())
	for _, tc := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"read fails partway", &brokenBody{}, http.StatusBadRequest},
		{"past the limit", bytes.NewReader(make([]byte, 16<<20+1)), http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		a.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/replicate", tc.body))
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// TestConfigValidation: a coordinator rejects nameless nodes and membership
// collisions.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty Self must be rejected")
	}
	for _, peers := range [][]Peer{
		{{Name: "", URL: "http://x"}},
		{{Name: "b", URL: ""}},
		{{Name: "a", URL: "http://x"}},                               // collides with self
		{{Name: "b", URL: "http://x"}, {Name: "b", URL: "http://y"}}, // duplicate
	} {
		c, err := New(Config{Self: "a", Peers: peers})
		if err == nil {
			c.Close()
			t.Fatalf("peers %v must be rejected", peers)
		}
	}
}

// TestReplicationQueueDepthCountsInFlightBatch: a record the replicator has
// taken off its queue but not yet delivered is still replication lag. The
// scripted peer blocks inside /cluster/replicate; while it does, node a's
// queue_depth must read ≥ 1, and once the peer answers it drains to 0 with
// the record counted as sent.
func TestReplicationQueueDepthCountsInFlightBatch(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cluster/replicate" {
			return
		}
		io.Copy(io.Discard, r.Body)
		close(entered)
		<-release
		io.WriteString(w, `{"received":1,"applied":1}`)
	}))
	defer peer.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tun := quietTuning()
	tun.retries = 0
	tun.peerTimeout = 30 * time.Second
	a := startNode(t, "a", ln, []Peer{{Name: "b", URL: peer.URL}}, tun)
	a.coord.Observe(store.Record{
		Fingerprint: "fp-lag", DBIdentity: testIdentity, Query: "tpch:q6",
		PlanBytes: []byte{1, 2, 3}, History: []float64{10, 5}, Cores: 4,
	})
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("peer never received the replication batch")
	}
	if d := a.coord.Stats().Replication.QueueDepth; d < 1 {
		t.Errorf("queue_depth %d while a batch is in flight to a blocked peer, want ≥ 1", d)
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := a.coord.Stats().Replication
		if st.QueueDepth == 0 && st.RecordsSent == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicationCatchesUpAfterMissedBatch: a batch a peer never
// acknowledged — its breaker stayed closed, so no recovery sync follows — is
// not lost. The scripted peer answers 500 to the first batch's three
// attempts and 200 after that; the next delivery to it is the whole replica
// set, so it ends with both records.
func TestReplicationCatchesUpAfterMissedBatch(t *testing.T) {
	var (
		mu   sync.Mutex
		hits int
		got  = map[string]bool{}
	)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		defer mu.Unlock()
		if hits++; hits <= 3 {
			http.Error(w, "scripted failure", http.StatusInternalServerError)
			return
		}
		recs, err := store.DecodeRecords(body, "test")
		if err != nil {
			t.Error(err)
		}
		for _, rec := range recs {
			got[rec.Fingerprint] = true
		}
		io.WriteString(w, `{"received":1,"applied":1}`)
	}))
	defer peer.Close()
	tun := quietTuning()
	tun.retryBase = time.Millisecond
	c, err := newCoordinator(Config{Self: "a", Peers: []Peer{{Name: "b", URL: peer.URL}}}, tun)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	record := func(fp string) store.Record {
		return store.Record{
			Fingerprint: fp, DBIdentity: testIdentity, Query: "tpch:q6",
			PlanBytes: []byte{1, 2, 3}, History: []float64{10, 5}, Cores: 4,
		}
	}
	waitFor := func(what string, done func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !done() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, c.Stats().Replication)
			}
			time.Sleep(time.Millisecond)
		}
	}
	c.Observe(record("fp-first"))
	waitFor("the first batch to fail", func() bool { return c.Stats().Replication.SendFailures == 1 })
	c.Observe(record("fp-second"))
	waitFor("the second record to arrive", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got["fp-second"]
	})
	mu.Lock()
	defer mu.Unlock()
	if !got["fp-first"] {
		t.Error("the record of the failed batch never reached the peer")
	}
	st := c.Stats()
	if st.Peers[0].Breaker != "closed" || st.Replication.SendFailures != 1 || st.Replication.SyncPushes != 1 {
		t.Errorf("want breaker closed, 1 send failure, 1 sync push; got %s, %+v", st.Peers[0].Breaker, st.Replication)
	}
}

// TestFederationRoutesFollowBodyRules: /admin/peers and /cluster/replicate
// are daemon routes like any other — a body over its limit is a 413, bytes
// after the JSON object a 400, a method the route does not take a 405, each
// a JSON error counted in /stats "errors".
func TestFederationRoutesFollowBodyRules(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a := startNode(t, "a", ln, nil, quietTuning())
	h := a.srv.Handler()
	errorsCounted := func() int64 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var st struct {
			Errors int64 `json:"errors"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.Errors
	}
	huge := `{"name":"c","url":"http://127.0.0.1:1/` + strings.Repeat("x", 1<<20) + `"}`
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"peer body over the limit", http.MethodPost, "/admin/peers", huge, http.StatusRequestEntityTooLarge},
		{"peer body with trailing bytes", http.MethodPost, "/admin/peers", `{"name":"c","url":"http://127.0.0.1:1"} {}`, http.StatusBadRequest},
		{"peers PUT", http.MethodPut, "/admin/peers", "", http.StatusMethodNotAllowed},
		{"replicate GET", http.MethodGet, "/cluster/replicate", "", http.StatusMethodNotAllowed},
	}
	before := errorsCounted()
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		var reply struct {
			Error string `json:"error"`
		}
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		} else if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Error == "" {
			t.Errorf("%s: reply is not a JSON error: %q", tc.name, rec.Body.String())
		}
	}
	if got := a.coord.Nodes(); len(got) != 1 {
		t.Errorf("a refused body changed the membership: %v", got)
	}
	if n := errorsCounted() - before; n != int64(len(cases)) {
		t.Errorf("/stats errors moved by %d over %d refused requests", n, len(cases))
	}
}
