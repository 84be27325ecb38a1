package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plancache"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tpch"
)

// The federation dataset is SF 0.2: big enough that a full-range select_rows
// result (12k values) spans APQRESULT chunk frames, so the forwarded-bytes
// twin test exercises chunk boundaries over the wire.
const testIdentity = "tpch:sf=0.2:seed=42"

// newEngineServer builds one single-shard serving core over its own engine,
// federated through fed (nil = standalone). Every call generates the same
// dataset, so two nodes (or a node and its standalone twin) are
// deterministically identical. Each named tenant gets its own (equally
// deterministic) SF 0.1 dataset, identity tenantIdentity(name).
func newEngineServer(t *testing.T, fed server.Federation, tenants ...string) *server.Server {
	t.Helper()
	cat := tpch.Generate(tpch.Config{SF: 0.2, Seed: 42})
	cfg := server.Config{
		Engines:    []*exec.Engine{exec.NewEngine(cat, sim.TwoSocket(), cost.Default())},
		DBIdentity: testIdentity,
		Benchmark:  "tpch",
		Federation: fed,
	}
	for _, name := range tenants {
		cfg.Tenants = append(cfg.Tenants, server.Tenant{
			Name:       name,
			Catalog:    tpch.Generate(tpch.Config{SF: 0.1, Seed: 7}),
			DBIdentity: tenantIdentity(name),
		})
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

type fedNode struct {
	name  string
	srv   *server.Server
	coord *Coordinator
	hs    *http.Server
	url   string
}

// quietTuning is defaultTuning with a health prober that never ticks within
// a test, so only the serve path moves a peer's breaker.
func quietTuning() tuning {
	tun := defaultTuning
	tun.probeInterval = time.Hour
	return tun
}

// startNode brings up one federated node on ln: a coordinator with the
// given timing, the serving core it federates, and a real HTTP listener —
// the apq wiring.
func startNode(t *testing.T, name string, ln net.Listener, peers []Peer, tun tuning, tenants ...string) *fedNode {
	t.Helper()
	coord, err := newCoordinator(Config{Self: name, Peers: peers}, tun)
	if err != nil {
		t.Fatal(err)
	}
	srv := newEngineServer(t, coord, tenants...)
	t.Cleanup(coord.Close)
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return &fedNode{
		name:  name,
		srv:   srv,
		coord: coord,
		hs:    hs,
		url:   "http://" + ln.Addr().String(),
	}
}

// twoNodes wires an A/B federation over pre-allocated loopback listeners
// (each node's config must name the other's URL before either exists).
func twoNodes(t *testing.T, tun tuning, tenants ...string) (*fedNode, *fedNode) {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lnA.Close()
		t.Fatal(err)
	}
	urlA := "http://" + lnA.Addr().String()
	urlB := "http://" + lnB.Addr().String()
	a := startNode(t, "a", lnA, []Peer{{Name: "b", URL: urlB}}, tun, tenants...)
	b := startNode(t, "b", lnB, []Peer{{Name: "a", URL: urlA}}, tun, tenants...)
	return a, b
}

func selectSumReq(lo int64) server.QueryRequest {
	hi := lo + 7
	return server.QueryRequest{SelectSum: &server.SelectSumSpec{
		Table: "lineitem", Column: "l_quantity", Lo: &lo, Hi: &hi,
	}}
}

// tenantIdentity is the DBIdentity newEngineServer gives tenant name ("" =
// the default tenant).
func tenantIdentity(name string) string {
	if name == "" {
		return testIdentity
	}
	return name + ":tpch:sf=0.1:seed=7"
}

// specFingerprint is the fingerprint the server resolves a select_sum
// (shape "select_sum") or select_rows spec to for a tenant of the given
// identity: the spec's canonical key under the dataset identity.
func specFingerprint(identity, shape string, sp *server.SelectSumSpec) string {
	return plancache.Fingerprint(identity, fmt.Sprintf("%s:%s:%s:%d:%d", shape, sp.Table, sp.Column, *sp.Lo, *sp.Hi))
}

// remoteOwnedQuery finds a select_sum whose fingerprint — resolved for the
// tenant named by the X-APQ-Tenant header value hdrTenant ("" = default) —
// node owner owns on the ring as this coordinator computes it.
func remoteOwnedQuery(t *testing.T, c *Coordinator, hdrTenant, owner string) server.QueryRequest {
	t.Helper()
	for lo := int64(1); lo <= 64; lo++ {
		req := selectSumReq(lo)
		fp := specFingerprint(tenantIdentity(hdrTenant), "select_sum", req.SelectSum)
		c.mu.RLock()
		got := c.ring.owner(fp, nil)
		c.mu.RUnlock()
		if got == owner {
			return req
		}
	}
	t.Fatalf("no select_sum candidate hashed to node %q", owner)
	return server.QueryRequest{}
}

func postJSON(t *testing.T, client *http.Client, url string, req server.QueryRequest) (server.QueryResponse, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := client.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s/query: %v", url, err)
	}
	defer resp.Body.Close()
	var qr server.QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatalf("decode reply: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return qr, resp.StatusCode
}

// TestRemoteTwinBitIdentical is the tentpole's first acceptance test: the
// same request sequence driven through a standalone server and through a
// federation entry node that forwards every request to the remote owner
// must produce identical responses field for field — session IDs, latencies,
// run numbers, convergence state — and identical per-run convergence
// traces. The remote transport is a routing layer, not a different engine.
func TestRemoteTwinBitIdentical(t *testing.T) {
	a, b := twoNodes(t, quietTuning())
	standalone := newEngineServer(t, nil)
	ts := httptest.NewServer(standalone.Handler())
	defer ts.Close()

	req := remoteOwnedQuery(t, a.coord, "", "b")
	client := &http.Client{}
	var session string
	converged := 0
	for i := 0; i < 4000; i++ {
		viaCluster, codeC := postJSON(t, client, a.url, req)
		direct, codeD := postJSON(t, client, ts.URL, req)
		if codeC != http.StatusOK || codeD != http.StatusOK {
			t.Fatalf("request %d: cluster=%d standalone=%d", i, codeC, codeD)
		}
		if !reflect.DeepEqual(viaCluster, direct) {
			t.Fatalf("request %d: twin divergence:\ncluster:    %+v\nstandalone: %+v", i, viaCluster, direct)
		}
		session = direct.Session
		if direct.State == "converged" {
			// A few extra servings past convergence: the hot path must stay
			// identical too.
			if converged++; converged > 3 {
				break
			}
		}
	}
	if converged == 0 {
		t.Fatal("query never converged within 4000 requests")
	}
	if stats := a.coord.Stats(); stats.Forwarded == 0 {
		t.Fatal("entry node never forwarded — the twin test compared two local serves")
	}
	// The convergence histories: byte-identical trace documents from the
	// owning node and the standalone twin.
	trace := func(base string) []byte {
		resp, err := client.Get(base + "/sessions/" + session + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET trace on %s: %d", base, resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if got, want := trace(b.url), trace(ts.URL); !bytes.Equal(got, want) {
		t.Fatalf("convergence traces diverge:\nowner:      %s\nstandalone: %s", got, want)
	}
}

// remoteOwnedRowsQuery finds a select_rows spanning multiple APQRESULT chunk
// frames whose fingerprint the named node owns. hi stays at the column
// maximum and lo stays small so every candidate selects more than one
// chunk's worth of rows.
func remoteOwnedRowsQuery(t *testing.T, c *Coordinator, owner string) server.QueryRequest {
	t.Helper()
	hi := int64(50)
	for lo := int64(1); lo <= 12; lo++ {
		lo := lo
		req := server.QueryRequest{SelectRows: &server.SelectSumSpec{
			Table: "lineitem", Column: "l_quantity", Lo: &lo, Hi: &hi,
		}}
		fp := specFingerprint(testIdentity, "select_rows", req.SelectRows)
		c.mu.RLock()
		got := c.ring.owner(fp, nil)
		c.mu.RUnlock()
		if got == owner {
			return req
		}
	}
	t.Fatalf("no select_rows candidate hashed to node %q", owner)
	return server.QueryRequest{}
}

// postResultBytes POSTs a results-negotiated /query and returns the raw
// APQRESULT reply bytes.
func postResultBytes(t *testing.T, client *http.Client, url string, req server.QueryRequest) []byte {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := client.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s/query: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s/query: status %d: %s", url, resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != server.ResultContentType {
		t.Fatalf("POST %s/query: Content-Type %q, want %q", url, ct, server.ResultContentType)
	}
	return raw
}

// TestRemoteTwinForwardedResultBytes extends the twin guarantee to result
// payloads: the APQRESULT stream an entry node proxies verbatim from the
// remote owner must be bit-identical — chunk boundaries included — to what a
// standalone server produces for the same request sequence, and (once
// converged) to what the owner serves locally.
func TestRemoteTwinForwardedResultBytes(t *testing.T) {
	a, b := twoNodes(t, quietTuning())
	standalone := newEngineServer(t, nil)
	ts := httptest.NewServer(standalone.Handler())
	defer ts.Close()

	req := remoteOwnedRowsQuery(t, a.coord, "b")
	req.Results = true
	client := &http.Client{}
	converged := 0
	for i := 0; i < 4000; i++ {
		viaCluster := postResultBytes(t, client, a.url, req)
		direct := postResultBytes(t, client, ts.URL, req)
		if !bytes.Equal(viaCluster, direct) {
			t.Fatalf("request %d: forwarded APQRESULT differs from the standalone twin (%d vs %d bytes)",
				i, len(viaCluster), len(direct))
		}
		p, err := server.DecodeResult(viaCluster)
		if err != nil {
			t.Fatalf("request %d: forwarded reply does not decode: %v", i, err)
		}
		if n := p.Values[0].Len(); n <= 8192 {
			t.Fatalf("result carries %d values — too small to span a chunk boundary", n)
		}
		if p.Meta.State == "converged" {
			if converged++; converged > 2 {
				break
			}
		}
	}
	if converged == 0 {
		t.Fatal("query never converged within 4000 requests")
	}
	// Owner-local vs forwarded, converged: the proxy adds and removes
	// nothing. (Converged servings are idempotent, so the extra owner-local
	// request does not perturb the twin sequence.)
	ownerLocal := postResultBytes(t, client, b.url, req)
	forwarded := postResultBytes(t, client, a.url, req)
	if !bytes.Equal(ownerLocal, forwarded) {
		t.Fatalf("forwarded APQRESULT differs from owner-local bytes (%d vs %d)", len(forwarded), len(ownerLocal))
	}
	stats := a.coord.Stats()
	if stats.Forwarded == 0 {
		t.Fatal("entry node never forwarded — the twin test compared two local serves")
	}
	if stats.ResultBytesProxied == 0 {
		t.Fatal("coordinator proxied no result bytes despite forwarded APQRESULT replies")
	}
}

// TestFailoverKillNodeMidTraffic is the tentpole's chaos acceptance test: a
// remotely-owned query converges through the entry node, the owning node
// dies, and every subsequent request still answers 200 — the fingerprint
// re-pins to the survivor, which serves it converged from the replicated
// plan (fewer requests to re-converge than the cold convergence took: zero).
// It runs at a fast tuning and at the production timing (defaultTuning,
// health prober included): the kill criterion holds at the latter.
func TestFailoverKillNodeMidTraffic(t *testing.T) {
	fast := quietTuning()
	fast.retryBase = time.Millisecond
	fast.breakerFailures = 1
	fast.breakerCooldown = 100 * time.Millisecond
	for _, tc := range []struct {
		name string
		tun  tuning
	}{
		{"fast", fast},
		{"production", defaultTuning},
	} {
		t.Run(tc.name, func(t *testing.T) { killOwnerMidTraffic(t, tc.tun) })
	}
}

// killOwnerMidTraffic is TestFailoverKillNodeMidTraffic at one tuning.
func killOwnerMidTraffic(t *testing.T, tun tuning) {
	a, b := twoNodes(t, tun)
	req := remoteOwnedQuery(t, a.coord, "", "b")
	client := &http.Client{}
	coldRuns := 0
	for i := 0; i < 4000; i++ {
		qr, code := postJSON(t, client, a.url, req)
		if code != http.StatusOK {
			t.Fatalf("converge request %d: status %d", i, code)
		}
		coldRuns++
		if qr.State == "converged" {
			break
		}
	}
	if coldRuns < 2 || coldRuns >= 4000 {
		t.Fatalf("implausible cold convergence: %d requests", coldRuns)
	}
	// The owner's converged record must land on the entry node before the
	// kill — that replica is what failover serves from.
	deadline := time.Now().Add(10 * time.Second)
	for a.coord.Stats().Replication.RecordsApplied == 0 {
		if time.Now().After(deadline) {
			t.Fatal("owner's converged plan never replicated to the entry node")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the owner mid-traffic.
	b.hs.Close()
	b.srv.Close()

	for i := 0; i < 30; i++ {
		qr, code := postJSON(t, client, a.url, req)
		if code != http.StatusOK {
			// The acceptance bar: zero client-visible errors beyond the
			// bounded retry window — and the retries are inside the request,
			// so the client sees none at all.
			t.Fatalf("failover request %d: status %d", i, code)
		}
		if qr.State != "converged" {
			t.Fatalf("failover request %d served %q — survivor should hold the replicated converged plan (0 warm runs < %d cold runs)", i, qr.State, coldRuns)
		}
	}
	stats := a.coord.Stats()
	if stats.Failovers == 0 {
		t.Fatal("no failovers counted despite the owner being dead")
	}
	var trips int64
	for _, p := range stats.Peers {
		if p.Name == "b" {
			trips = p.Trips
		}
	}
	if trips == 0 {
		t.Fatal("peer breaker never tripped on the dead node")
	}
}

// TestAdminPeersJoinLeave: runtime membership. A node that converged alone
// pushes its replica set to a joining peer; fingerprints the newcomer owns
// re-pin to it; leaving pins them back.
func TestAdminPeersJoinLeave(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lnA.Close()
		t.Fatal(err)
	}
	a := startNode(t, "a", lnA, nil, quietTuning())
	b := startNode(t, "b", lnB, nil, quietTuning())

	// Converge something on the lone node so the join has a replica set to
	// push.
	client := &http.Client{}
	req := selectSumReq(3)
	for i := 0; i < 4000; i++ {
		qr, code := postJSON(t, client, a.url, req)
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if qr.State == "converged" {
			break
		}
	}

	// Join b via the admin surface.
	joinBody := fmt.Sprintf(`{"name":"b","url":%q}`, b.url)
	resp, err := client.Post(a.url+"/admin/peers", "application/json", bytes.NewReader([]byte(joinBody)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: status %d", resp.StatusCode)
	}
	if got := a.coord.Nodes(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("membership after join: %v", got)
	}
	// The join push seeds the newcomer with the converged plan.
	deadline := time.Now().Add(10 * time.Second)
	for b.coord.Stats().Replication.RecordsApplied == 0 {
		if time.Now().After(deadline) {
			t.Fatal("join never pushed the replica set to the new peer")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A fingerprint b now owns routes remotely...
	bReq := remoteOwnedQuery(t, a.coord, "", "b")
	before := a.coord.Stats().Forwarded
	if _, code := postJSON(t, client, a.url, bReq); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if after := a.coord.Stats().Forwarded; after != before+1 {
		t.Fatalf("request for b-owned fingerprint was not forwarded (forwarded %d -> %d)", before, after)
	}

	// ...and pins back home once b leaves.
	dreq, _ := http.NewRequest(http.MethodDelete, a.url+"/admin/peers?name=b", nil)
	resp, err = client.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: status %d", resp.StatusCode)
	}
	if got := a.coord.Nodes(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("membership after leave: %v", got)
	}
	before = a.coord.Stats().Forwarded
	if _, code := postJSON(t, client, a.url, bReq); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if after := a.coord.Stats().Forwarded; after != before {
		t.Fatal("fingerprint still forwarding after its owner left")
	}
}

// TestReplicateIntake: the replication endpoint rejects hostile documents
// and skips well-formed records that don't belong on this node.
func TestReplicateIntake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a := startNode(t, "a", ln, nil, quietTuning())
	client := &http.Client{}

	resp, err := client.Post(a.url+"/cluster/replicate", "application/octet-stream", bytes.NewReader([]byte("not an export document")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage intake: status %d, want 400", resp.StatusCode)
	}

	resp, err = client.Get(a.url + "/cluster/replicate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET intake: status %d, want 405", resp.StatusCode)
	}

	// A valid document whose record names a tenant this node doesn't run:
	// received but not applied.
	rec := store.Record{
		Fingerprint: "fp-foreign", DBIdentity: testIdentity, Tenant: "ghost",
		Query: "tpch:q6", PlanBytes: []byte{1, 2, 3}, History: []float64{10, 5},
		Cores: 4, CostParams: cost.Default(),
	}
	doc := store.EncodeRecords([]store.Record{rec})
	resp, err = client.Post(a.url+"/cluster/replicate", "application/octet-stream", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Received int `json:"received"`
		Applied  int `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Received != 1 || out.Applied != 0 {
		t.Fatalf("foreign record intake: status %d, %+v (want 200, received 1, applied 0)", resp.StatusCode, out)
	}
}

// postRaw POSTs req to base/query with the given extra headers and returns
// the reply's body bytes and Content-Type; any non-200 is fatal.
func postRaw(t *testing.T, client *http.Client, base string, req server.QueryRequest, hdr map[string]string) ([]byte, string) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, base+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := client.Do(hreq)
	if err != nil {
		t.Fatalf("POST %s/query: %v", base, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s/query: status %d: %s", base, resp.StatusCode, raw)
	}
	return raw, resp.Header.Get("Content-Type")
}

// TestForwardedRequestKeepsTenantHeader: a request that names its tenant only
// by the X-APQ-Tenant header and whose fingerprint a remote node owns must be
// answered from that tenant's data — the forward hop carries the header. The
// reply, JSON and APQRESULT alike, is byte-identical to a standalone server's
// for the same request sequence.
func TestForwardedRequestKeepsTenantHeader(t *testing.T) {
	a, _ := twoNodes(t, quietTuning(), "acme")
	standalone := newEngineServer(t, nil, "acme")
	ts := httptest.NewServer(standalone.Handler())
	defer ts.Close()

	req := remoteOwnedQuery(t, a.coord, "acme", "b")
	if req.Tenant != "" {
		t.Fatal("the request must name its tenant by header only")
	}
	wantFP := specFingerprint(tenantIdentity("acme"), "select_sum", req.SelectSum)
	client := &http.Client{}

	hdr := map[string]string{"X-APQ-Tenant": "acme"}
	viaCluster, ct := postRaw(t, client, a.url, req, hdr)
	direct, _ := postRaw(t, client, ts.URL, req, hdr)
	if ct != "application/json" {
		t.Fatalf("forwarded JSON reply has Content-Type %q", ct)
	}
	var got server.QueryResponse
	if err := json.Unmarshal(viaCluster, &got); err != nil {
		t.Fatalf("forwarded reply does not decode: %v", err)
	}
	if got.Tenant != "acme" || got.Fingerprint != wantFP {
		t.Fatalf("forwarded reply served tenant %q fingerprint %q, want \"acme\" %q", got.Tenant, got.Fingerprint, wantFP)
	}
	if !bytes.Equal(viaCluster, direct) {
		t.Fatalf("forwarded JSON reply differs from the standalone twin:\ncluster:    %s\nstandalone: %s", viaCluster, direct)
	}

	hdr["Accept"] = server.ResultContentType
	viaCluster, ct = postRaw(t, client, a.url, req, hdr)
	direct, _ = postRaw(t, client, ts.URL, req, hdr)
	if ct != server.ResultContentType {
		t.Fatalf("forwarded columnar reply has Content-Type %q", ct)
	}
	p, err := server.DecodeResult(viaCluster)
	if err != nil {
		t.Fatalf("forwarded columnar reply does not decode: %v", err)
	}
	if p.Meta.Tenant != "acme" || p.Meta.Fingerprint != wantFP {
		t.Fatalf("forwarded columnar reply served tenant %q fingerprint %q, want \"acme\" %q", p.Meta.Tenant, p.Meta.Fingerprint, wantFP)
	}
	if !bytes.Equal(viaCluster, direct) {
		t.Fatalf("forwarded APQRESULT differs from the standalone twin (%d vs %d bytes)", len(viaCluster), len(direct))
	}
	if stats := a.coord.Stats(); stats.Forwarded != 2 {
		t.Fatalf("entry node forwarded %d of the 2 requests", stats.Forwarded)
	}
}

// skipIfPoolsAreLossy skips allocation measurements under the race
// detector, whose sync.Pool drops Puts on purpose: a Get/Put round trip on a
// warm pool allocates only when the pool is lossy.
func skipIfPoolsAreLossy(t *testing.T) {
	t.Helper()
	pool := sync.Pool{New: func() any { return new(int) }}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 1000; i++ {
		pool.Put(pool.Get())
	}
	runtime.ReadMemStats(&m1)
	if m1.Mallocs-m0.Mallocs > 100 {
		t.Skip("sync.Pool is lossy in this build (race detector): allocation counts are exact only without it")
	}
}

// TestFederatedLocalQueryAllocs: a converged request this node owns is read,
// decoded and resolved once at a federated node — the federation stage adds
// one ring lookup, not a second front. Its allocations stay within 4 of the
// standalone handler's on the same converged request.
func TestFederatedLocalQueryAllocs(t *testing.T) {
	skipIfPoolsAreLossy(t)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{"received":1,"applied":0}`)
	}))
	defer peer.Close()
	coord, err := newCoordinator(Config{Self: "a", Peers: []Peer{{Name: "b", URL: peer.URL}}}, quietTuning())
	if err != nil {
		t.Fatal(err)
	}
	fed := newEngineServer(t, coord)
	t.Cleanup(coord.Close)
	standalone := newEngineServer(t, nil)

	req := remoteOwnedQuery(t, coord, "", "a")
	body, _ := json.Marshal(req)
	serve := func(h http.Handler) server.QueryResponse {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatal(err)
		}
		return qr
	}
	converge := func(h http.Handler) {
		for i := 0; serve(h).State != "converged"; i++ {
			if i == 4000 {
				t.Fatal("query never converged within 4000 requests")
			}
		}
	}
	converge(standalone.Handler())
	converge(fed.Handler())
	// The converged record's replication must be done before measuring: the
	// replicator's goroutine allocates too.
	deadline := time.Now().Add(10 * time.Second)
	for st := coord.Stats().Replication; st.RecordsSent == 0 || st.QueueDepth != 0; st = coord.Stats().Replication {
		if time.Now().After(deadline) {
			t.Fatalf("the converged record never replicated: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	want := testing.AllocsPerRun(200, func() { serve(standalone.Handler()) })
	got := testing.AllocsPerRun(200, func() { serve(fed.Handler()) })
	t.Logf("locally owned converged request: %.0f allocs/op federated, %.0f standalone", got, want)
	if got > want+4 {
		t.Fatalf("a locally owned request allocates %.0f/op at a federated node, standalone %.0f/op: more than the ring lookup's +4", got, want)
	}
	if st := coord.Stats(); st.Forwarded != 0 || st.ServedLocal == 0 {
		t.Fatalf("the request was not served locally: %+v", st)
	}
}

// keyPaths collects the recursive set of JSON key paths under v: objects
// contribute "parent.key", arrays "parent[]" (the union over their
// elements). Values are ignored — this is the reply's schema, not its data.
func keyPaths(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			keyPaths(p, sub, out)
		}
	case []any:
		for _, sub := range x {
			keyPaths(prefix+"[]", sub, out)
		}
	}
}

// TestClusterStatsKeysPinned pins the /stats "cluster" block from outside:
// its JSON key paths, with a peer that has failed once and stayed closed (so
// the omitempty consecutive_failures is live), must equal
// testdata/cluster_stats_keys.txt, and GET /admin/peers must reply with the
// same block.
func TestClusterStatsKeysPinned(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/query" {
			http.Error(w, "scripted failure", http.StatusInternalServerError)
			return
		}
		io.WriteString(w, `{"received":0,"applied":0}`)
	}))
	defer peer.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tun := quietTuning()
	tun.retries = 0
	a := startNode(t, "a", ln, []Peer{{Name: "b", URL: peer.URL}}, tun)
	client := &http.Client{}
	if _, code := postJSON(t, client, a.url, remoteOwnedQuery(t, a.coord, "", "b")); code != http.StatusOK {
		t.Fatalf("failover request: status %d", code)
	}
	if st := a.coord.Stats(); st.Peers[0].Failures != 1 || st.Peers[0].Breaker != "closed" {
		t.Fatalf("want one failure on a closed breaker: %+v", st.Peers[0])
	}
	keys := func(path, block string) []string {
		t.Helper()
		resp, err := client.Get(a.url + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var tree map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
			t.Fatal(err)
		}
		var v any = tree
		if block != "" {
			v = tree[block]
		}
		set := map[string]bool{}
		keyPaths("", v, set)
		out := make([]string, 0, len(set))
		for p := range set {
			out = append(out, p)
		}
		sort.Strings(out)
		return out
	}
	got := keys("/stats", "cluster")
	raw, err := os.ReadFile("testdata/cluster_stats_keys.txt")
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Fields(string(raw)); !reflect.DeepEqual(got, want) {
		t.Errorf("/stats cluster key paths changed; got (one per line, the format of testdata/cluster_stats_keys.txt):\n%s", strings.Join(got, "\n"))
	}
	if peers := keys("/admin/peers", ""); !reflect.DeepEqual(peers, got) {
		t.Errorf("GET /admin/peers keys differ from the /stats cluster block:\n%v\n%v", peers, got)
	}
}
