package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plancache"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/tpch"
)

// BenchmarkForwardRel is what federation costs a request: two loopback
// nodes over one SF 2 TPC-H catalog, join_hot's six queries converged, and
// per query b.N interleaved pairs of the same request served locally (posted
// to its ring owner) and forwarded (posted to the other node, which relays
// the owner's reply). forward_rel is the sum of the per-query median
// forwarded latencies over the sum of the local ones. Setup (generation and
// convergence) is repeated per run, so take the pairs in one run:
//
//	go test -run '^$' -bench ForwardRel -benchtime 300x ./internal/cluster
func BenchmarkForwardRel(b *testing.B) {
	const identity = "tpch:sf=2:seed=42"
	cat := tpch.Generate(tpch.Config{SF: 2, Seed: 42})
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[i] = ln
	}
	names := [2]string{"a", "b"}
	urls := [2]string{"http://" + lns[0].Addr().String(), "http://" + lns[1].Addr().String()}
	var coords [2]*Coordinator
	for i := range coords {
		coord, err := newCoordinator(Config{Self: names[i], Peers: []Peer{{Name: names[1-i], URL: urls[1-i]}}}, defaultTuning)
		if err != nil {
			b.Fatal(err)
		}
		srv, err := server.New(server.Config{
			Engines:    []*exec.Engine{exec.NewEngine(cat, sim.TwoSocket(), cost.Default())},
			DBIdentity: identity,
			Benchmark:  "tpch",
			Federation: coord,
		})
		if err != nil {
			b.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[i])
		b.Cleanup(func() {
			hs.Close()
			coord.Close()
			srv.Close()
		})
		coords[i] = coord
	}

	client := &http.Client{}
	// post serves one request and reports its wall-clock latency and whether
	// it was served converged.
	post := func(url string, body []byte) (float64, bool) {
		start := time.Now()
		resp, err := client.Post(url+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		took := time.Since(start)
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("POST %s/query: status %d: %s %v", url, resp.StatusCode, raw, err)
		}
		return float64(took), bytes.Contains(raw, []byte(`"state":"converged"`))
	}
	// timed is post on the measured path, where every reply is converged.
	timed := func(url string, body []byte) float64 {
		took, converged := post(url, body)
		if !converged {
			b.Fatalf("POST %s/query %s: not served converged", url, body)
		}
		return took
	}
	type query struct {
		body         []byte
		owner, other string // base URLs
		local, fwd   []float64
	}
	var queries []*query
	for _, n := range []int{4, 8, 9, 13, 17, 19} {
		coords[0].mu.RLock()
		owner := coords[0].ring.owner(plancache.Fingerprint(identity, fmt.Sprintf("tpch:q%d", n)), nil)
		coords[0].mu.RUnlock()
		q := &query{body: []byte(fmt.Sprintf(`{"query":%d}`, n)), owner: urls[0], other: urls[1]}
		if owner == names[1] {
			q.owner, q.other = urls[1], urls[0]
		}
		for i := 0; ; i++ {
			if _, converged := post(q.owner, q.body); converged {
				break
			}
			if i == 4000 {
				b.Fatalf("q%d never converged within 4000 requests", n)
			}
		}
		queries = append(queries, q)
	}
	// Replication of the converged records settles before the clock starts.
	deadline := time.Now().Add(30 * time.Second)
	for _, c := range coords {
		for c.Stats().Replication.QueueDepth != 0 {
			if time.Now().After(deadline) {
				b.Fatal("replication never drained")
			}
			time.Sleep(time.Millisecond)
		}
	}
	var forwarded [2]int64 // per node: what it already forwarded, less what it should
	for i, c := range coords {
		forwarded[i] = c.Stats().Forwarded
		for _, q := range queries {
			if q.other == urls[i] {
				forwarded[i] += int64(b.N)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			// Alternate which leg of the pair goes first, so neither always
			// runs on the warmer connection.
			if i%2 == 0 {
				q.local = append(q.local, timed(q.owner, q.body))
				q.fwd = append(q.fwd, timed(q.other, q.body))
			} else {
				q.fwd = append(q.fwd, timed(q.other, q.body))
				q.local = append(q.local, timed(q.owner, q.body))
			}
		}
	}
	b.StopTimer()
	var local, fwd float64
	for _, q := range queries {
		local += median(q.local)
		fwd += median(q.fwd)
	}
	for i, c := range coords {
		if got := c.Stats().Forwarded; got != forwarded[i] {
			b.Fatalf("node %s forwarded %d requests in all, want %d: a local leg was forwarded", names[i], got, forwarded[i])
		}
	}
	b.ReportMetric(fwd/local, "forward_rel")
}

// median of xs, which it sorts.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
