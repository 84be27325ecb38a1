package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/vec"
)

// ---- wire round-trip ------------------------------------------------------

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func dictColumn(t testing.TB, name string, seq int64, vals []string) *storage.Column {
	t.Helper()
	d := vec.NewDict()
	codes := make([]int64, len(vals))
	for i, s := range vals {
		codes[i] = d.Code(s)
	}
	return storage.NewColumn(name, seq, vec.NewDictCoded(codes, d))
}

func intColumn(name string, seq int64, vals []int64) *storage.Column {
	return storage.NewColumn(name, seq, vec.NewInt64(vals))
}

// TestResultRoundTrip pins the codec's core property over every value kind:
// encode → decode reproduces the payload, and re-encoding the decoded payload
// reproduces the input bit-for-bit (the canonical-form guarantee the cluster
// proxy's bit-identity promise rests on).
func TestResultRoundTrip(t *testing.T) {
	long := make([]int64, 3*resultChunkValues+17) // spans 4 chunk frames
	for i := range long {
		long[i] = int64(i * 3)
	}
	cases := []struct {
		name string
		vals []exec.Value
	}{
		{"scalar", []exec.Value{exec.ScalarValue(-42)}},
		{"oids", []exec.Value{exec.OidsValue([]int64{0, 5, 9, 1 << 40})}},
		{"empty_oids", []exec.Value{exec.OidsValue(nil)}},
		{"column", []exec.Value{exec.ColValue(intColumn("l_quantity", 7, []int64{1, 2, 3}))}},
		{"dict_column", []exec.Value{exec.ColValue(dictColumn(t, "l_returnflag", 3, []string{"A", "N", "A", "R", "N"}))}},
		{"groups", []exec.Value{exec.GroupsValue(&algebra.Groups{
			Keys: dictColumn(t, "keys", 1, []string{"x", "y"}),
			GIDs: []int64{0, 1, 1, 0},
		})}},
		{"multi_chunk_column", []exec.Value{exec.ColValue(intColumn("big", 11, long))}},
		{"mixed", []exec.Value{
			exec.ScalarValue(7),
			exec.OidsValue([]int64{2, 4}),
			exec.ColValue(intColumn("c", 1, []int64{9, 8})),
		}},
		{"no_values", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			meta := QueryResponse{Query: "test:" + tc.name, State: "converged", NumValues: len(tc.vals)}
			raw, err := EncodeResult(&meta, tc.vals)
			if err != nil {
				t.Fatal(err)
			}
			p, err := DecodeResult(raw)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if p.Meta != meta {
				t.Fatalf("meta mismatch: %+v != %+v", p.Meta, meta)
			}
			if !exec.ResultsEqual(p.Values, tc.vals) {
				t.Fatalf("values mismatch after round trip")
			}
			again, err := EncodeResult(&p.Meta, p.Values)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, raw) {
				t.Fatalf("re-encode not bit-identical: %d vs %d bytes", len(again), len(raw))
			}
			// Dictionary survives the trip (Equal compares decoded values, so
			// check the dictionary identity explicitly).
			for i, v := range tc.vals {
				if v.Kind == p.Values[i].Kind && v.Col != nil && (v.Col.Dict() == nil) != (p.Values[i].Col.Dict() == nil) {
					t.Fatalf("value %d: dictionary presence changed across the wire", i)
				}
			}
		})
	}
}

// ---- hostile input --------------------------------------------------------

// reframe appends a valid CRC trailer to body, so corruption tests reach the
// validation they target instead of tripping the checksum first — the CRC
// only protects against corruption in flight, a hostile peer frames anything.
func reframe(body []byte) []byte {
	out := append([]byte{}, body...)
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], crc32.Checksum(out, resultCRC))
	return append(out, tr[:]...)
}

func le32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func le64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// docPrefix renders magic+version+meta+nvalues — the frame everything after
// the metadata hangs off — with canonical metadata for the given response.
func docPrefix(t *testing.T, nvalues uint32) []byte {
	t.Helper()
	meta, err := json.Marshal(&QueryResponse{Query: "hostile"})
	if err != nil {
		t.Fatal(err)
	}
	b := append([]byte{}, resultMagic[:]...)
	b = le32(b, resultVersion)
	b = le32(b, uint32(len(meta)))
	b = append(b, meta...)
	return le32(b, nvalues)
}

// TestResultDecodeHostile drives DecodeResult through the failure table the
// fuzz target explores at random: every entry must error — never panic, never
// over-allocate — with the targeted validation, not an incidental one.
func TestResultDecodeHostile(t *testing.T) {
	valid, err := EncodeResult(&QueryResponse{Query: "hostile"}, []exec.Value{exec.OidsValue([]int64{1, 2, 3})})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"too_short", valid[:10]},
		{"crc_flip", func() []byte {
			b := append([]byte{}, valid...)
			b[len(b)/2] ^= 0xFF
			return b
		}()},
		{"truncated_crc", valid[:len(valid)-2]},
		{"bad_magic", func() []byte {
			b := append([]byte{}, valid[:len(valid)-4]...)
			b[0] = 'X'
			return reframe(b)
		}()},
		{"future_version", func() []byte {
			b := append([]byte{}, valid[:len(valid)-4]...)
			binary.LittleEndian.PutUint32(b[9:], resultVersion+1)
			return reframe(b)
		}()},
		{"meta_len_past_end", reframe(func() []byte {
			b := append([]byte{}, resultMagic[:]...)
			b = le32(b, resultVersion)
			return le32(b, 1<<30)
		}())},
		{"non_canonical_meta", reframe(func() []byte {
			meta := []byte(` {"query":"hostile"} `) // valid JSON, not json.Marshal output
			b := append([]byte{}, resultMagic[:]...)
			b = le32(b, resultVersion)
			b = le32(b, uint32(len(meta)))
			b = append(b, meta...)
			return le32(b, 0)
		}())},
		{"nvalues_lie", reframe(docPrefix(t, 1<<30))},
		{"unknown_kind", reframe(append(docPrefix(t, 1), 99))},
		{"int_stream_total_lie", reframe(func() []byte {
			b := append(docPrefix(t, 1), resKindOids)
			return le32(b, 1<<30)
		}())},
		{"non_canonical_chunk", reframe(func() []byte {
			// total 3, but a chunk of 2 — a boundary the encoder never emits.
			b := append(docPrefix(t, 1), resKindOids)
			b = le32(b, 3)
			b = le32(b, 2)
			b = le64(b, 1)
			b = le64(b, 2)
			b = le32(b, 1)
			return le64(b, 3)
		}())},
		{"truncated_column_name", reframe(func() []byte {
			b := append(docPrefix(t, 1), resKindColumn)
			return le32(b, 500) // name length pointing past the buffer
		}())},
		{"bad_dict_flag", reframe(func() []byte {
			b := append(docPrefix(t, 1), resKindColumn)
			b = le32(b, 1)
			b = append(b, 'c')
			b = le64(b, 1) // seq
			return append(b, 2)
		}())},
		{"dict_count_lie", reframe(func() []byte {
			b := append(docPrefix(t, 1), resKindColumn)
			b = le32(b, 1)
			b = append(b, 'c')
			b = le64(b, 1)
			b = append(b, 1)
			return le32(b, 1<<30)
		}())},
		{"dict_duplicate_entry", reframe(func() []byte {
			b := append(docPrefix(t, 1), resKindColumn)
			b = le32(b, 1)
			b = append(b, 'c')
			b = le64(b, 1)
			b = append(b, 1)
			b = le32(b, 2)
			for i := 0; i < 2; i++ {
				b = le32(b, 1)
				b = append(b, 'a')
			}
			b = le32(b, 0) // empty int-stream
			return b
		}())},
		{"dict_code_out_of_range", reframe(func() []byte {
			b := append(docPrefix(t, 1), resKindColumn)
			b = le32(b, 1)
			b = append(b, 'c')
			b = le64(b, 1)
			b = append(b, 1)
			b = le32(b, 1)
			b = le32(b, 1)
			b = append(b, 'a')
			b = le32(b, 1) // one value...
			b = le32(b, 1)
			return le64(b, 5) // ...coding entry 5 of a 1-entry dictionary
		}())},
		{"trailing_bytes", reframe(append(append([]byte{}, valid[:len(valid)-4]...), 0))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeResult(tc.data); err == nil {
				t.Fatalf("hostile document decoded without error")
			}
		})
	}
}

// ---- HTTP equivalence across serving paths --------------------------------

// postResultRaw POSTs a /query body negotiating APQRESULT via Accept and
// returns the raw reply bytes.
func postResultRaw(t *testing.T, url string, req QueryRequest, frozen bool) []byte {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", ResultContentType)
	if frozen {
		hreq.Header.Set(FrozenHeader, "1")
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw.String())
	}
	if ct := resp.Header.Get("Content-Type"); ct != ResultContentType {
		t.Fatalf("Content-Type %q, want %q", ct, ResultContentType)
	}
	return raw.Bytes()
}

// TestServeResultEquivalence is the tentpole's proof obligation: for both
// ad-hoc shapes, the APQRESULT body decoded off the HTTP wire carries exactly
// the values the engine computed, on every serving path — cold (first
// adaptive run), hot (converged session), frozen (learned state only), and
// serial (cache bypass) — and every reply re-encodes bit-identically.
func TestServeResultEquivalence(t *testing.T) {
	s, ts := newTestServer(t, Config{Benchmark: "tpch"})
	lo, hiSum, hiRows := int64(1), int64(24), int64(50)
	shapes := []struct {
		name string
		req  QueryRequest
	}{
		{"select_sum", QueryRequest{SelectSum: &SelectSumSpec{Table: "lineitem", Column: "l_quantity", Lo: &lo, Hi: &hiSum}}},
		{"select_rows", QueryRequest{SelectRows: &SelectSumSpec{Table: "lineitem", Column: "l_quantity", Lo: &lo, Hi: &hiRows}}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			// Engine ground truth through the in-process seam (no wire).
			req := shape.req
			_, truth, derr := serveInProcess(s, &req)
			if derr != nil {
				t.Fatalf("dispatch: %v", derr.err)
			}
			if shape.name == "select_rows" && truth[0].Len() <= resultChunkValues {
				t.Fatalf("select_rows result has %d values; want > %d so the wire path spans chunks", truth[0].Len(), resultChunkValues)
			}

			check := func(path string, raw []byte) {
				t.Helper()
				p, err := DecodeResult(raw)
				if err != nil {
					t.Fatalf("%s: decode: %v", path, err)
				}
				if !exec.ResultsEqual(p.Values, truth) {
					t.Fatalf("%s: decoded values differ from the engine's", path)
				}
				if p.Meta.NumValues != len(truth) {
					t.Fatalf("%s: meta num_values %d, want %d", path, p.Meta.NumValues, len(truth))
				}
				again, err := EncodeResult(&p.Meta, p.Values)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, raw) {
					t.Fatalf("%s: wire bytes are not the canonical encoding", path)
				}
			}

			check("cold", postResultRaw(t, ts.URL, shape.req, false))
			body, _ := json.Marshal(shape.req)
			convergeQuery(t, s, body)
			check("hot", postResultRaw(t, ts.URL, shape.req, false))
			check("frozen", postResultRaw(t, ts.URL, shape.req, true))
			serialReq := shape.req
			serialReq.Mode = "serial"
			check("serial", postResultRaw(t, ts.URL, serialReq, false))
		})
	}
}

// ---- coalescing -----------------------------------------------------------

// holdShard occupies sh's engine-ownership semaphore so every request that
// arrives next must either queue on the lock or coalesce onto a flight —
// the deterministic stand-in for natural request overlap, which a
// single-CPU test host cannot be relied on to produce.
func holdShard(sh *shard) (release func()) {
	sh.sem <- struct{}{}
	var once sync.Once
	return func() { once.Do(func() { <-sh.sem }) }
}

// awaitParked waits until every one of n storm requests is accounted for:
// either inside doCtx (holding or queued on the engine lock) or joined onto
// a coalescing flight.
func awaitParked(t *testing.T, s *Server, sh *shard, base int64, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for int(sh.waiting.Load())+int(s.coalesced.Load()-base) < n {
		if time.Now().After(deadline) {
			t.Fatalf("storm never parked: %d waiting, %d coalesced of %d requests",
				sh.waiting.Load(), s.coalesced.Load()-base, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescingStorm is the single-flight acceptance test (run under -race
// in CI): N concurrent identical requests against a held shard produce far
// fewer engine runs than requests, every reply decodes to the same values,
// and /stats surfaces the coalesced count.
func TestCoalescingStorm(t *testing.T) {
	s, ts := newTestServer(t, Config{Benchmark: "tpch"})
	lo, hi := int64(1), int64(24)
	req := QueryRequest{SelectSum: &SelectSumSpec{Table: "lineitem", Column: "l_quantity", Lo: &lo, Hi: &hi}, Results: true}
	body, _ := json.Marshal(QueryRequest{SelectSum: req.SelectSum})
	qr := serveOnce(t, s, body) // learn the fingerprint's shard
	sh := s.shards[qr.Shard]

	var st0 StatsResponse
	getJSON(t, ts.URL+"/stats", &st0)
	c0 := s.coalesced.Load()

	release := holdShard(sh)
	defer release()
	const storm = 16
	replies := make([][]byte, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = postResultRaw(t, ts.URL, req, false)
		}(i)
	}
	awaitParked(t, s, sh, c0, storm)
	release()
	wg.Wait()

	var st1 StatsResponse
	getJSON(t, ts.URL+"/stats", &st1)
	runs := (st1.Cache.Hits + st1.Cache.Misses) - (st0.Cache.Hits + st0.Cache.Misses)
	coalesced := st1.CoalescedRequests - st0.CoalescedRequests
	t.Logf("storm: %d requests, %d engine runs, %d coalesced", storm, runs, coalesced)
	if runs*2 > storm {
		t.Fatalf("%d engine runs for %d identical concurrent requests; coalescing should collapse most of the burst", runs, storm)
	}
	if runs+coalesced != storm {
		t.Fatalf("accounting: %d runs + %d coalesced != %d requests", runs, coalesced, storm)
	}
	if st1.ResultBytesSent <= st0.ResultBytesSent {
		t.Fatal("/stats result_bytes_sent did not grow across an APQRESULT storm")
	}
	first, err := DecodeResult(replies[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range replies {
		p, err := DecodeResult(raw)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if !exec.ResultsEqual(p.Values, first.Values) {
			t.Fatalf("reply %d decoded different values than reply 0", i)
		}
	}
}

// TestCoalescingEvictRetireRace pins the buffer-ownership rule the shared
// result path depends on: cache eviction (which retires plans and recycles
// arenas through the engine) must never release the value buffers coalesced
// waiters are still holding and streaming. Run under -race; the trailing
// goroutine check catches leaked waiters.
func TestCoalescingEvictRetireRace(t *testing.T) {
	s, _ := newTestServer(t, Config{Benchmark: "tpch"})
	lo, hi := int64(1), int64(24)
	req := QueryRequest{SelectSum: &SelectSumSpec{Table: "lineitem", Column: "l_quantity", Lo: &lo, Hi: &hi}, Results: true}
	body, _ := json.Marshal(req)
	metaBody, _ := json.Marshal(QueryRequest{SelectSum: req.SelectSum})
	qr := serveOnce(t, s, metaBody)
	sh := s.shards[qr.Shard]
	fp := qr.Fingerprint

	goroutines := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		c0 := s.coalesced.Load()
		release := holdShard(sh)
		const storm = 8
		replies := make([][]byte, storm)
		var wg sync.WaitGroup
		for i := 0; i < storm; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rec := httptest.NewRecorder()
				hr := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
				s.Handler().ServeHTTP(rec, hr)
				if rec.Code == http.StatusOK {
					replies[i] = append([]byte{}, rec.Body.Bytes()...)
				}
			}(i)
		}
		awaitParked(t, s, sh, c0, storm)
		// Queue evictions behind the storm on the same engine lock: they
		// retire the session's plans and recycle its arenas while waiters
		// are still decoding and streaming the shared result values.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if err := s.do(sh, func() { sh.cache.Evict(fp) }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		release()
		wg.Wait()

		var want []exec.Value
		for i, raw := range replies {
			if raw == nil {
				t.Fatalf("round %d: reply %d failed", round, i)
			}
			p, err := DecodeResult(raw)
			if err != nil {
				t.Fatalf("round %d reply %d: %v", round, i, err)
			}
			if want == nil {
				want = p.Values
			} else if !exec.ResultsEqual(p.Values, want) {
				t.Fatalf("round %d reply %d: values diverged under eviction", round, i)
			}
		}
	}
	// No waiter may outlive its request: allow the runtime a moment to
	// retire finished goroutines, then compare against the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > goroutines+2 {
		t.Fatalf("goroutine leak: %d before the storms, %d after", goroutines, g)
	}
}

// TestStatsExposesCoalescing is the /stats contract for the new counters:
// coalesced_requests counts joins, result_bytes_sent counts APQRESULT bytes.
func TestStatsExposesCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{Benchmark: "tpch"})
	lo, hi := int64(2), int64(9)
	req := QueryRequest{SelectSum: &SelectSumSpec{Table: "lineitem", Column: "l_quantity", Lo: &lo, Hi: &hi}, Results: true}
	qr := serveOnce(t, s, mustJSON(t, QueryRequest{SelectSum: req.SelectSum}))
	sh := s.shards[qr.Shard]
	postResultRaw(t, ts.URL, req, false) // one APQRESULT reply so the byte counter is primed

	var st0 StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &st0); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if st0.ResultBytesSent <= 0 {
		t.Fatal("result_bytes_sent is zero after an APQRESULT reply")
	}

	release := holdShard(sh)
	defer release()
	const storm = 4
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postResultRaw(t, ts.URL, req, false)
		}()
	}
	awaitParked(t, s, sh, st0.CoalescedRequests, storm)
	release()
	wg.Wait()

	var st1 StatsResponse
	getJSON(t, ts.URL+"/stats", &st1)
	if st1.CoalescedRequests <= st0.CoalescedRequests {
		t.Fatalf("coalesced_requests did not grow: %d -> %d", st0.CoalescedRequests, st1.CoalescedRequests)
	}
	if st1.ResultBytesSent <= st0.ResultBytesSent {
		t.Fatalf("result_bytes_sent did not grow: %d -> %d", st0.ResultBytesSent, st1.ResultBytesSent)
	}
}

// ---- handler error headers ------------------------------------------------

// TestHandlerErrorContentType audits every handler's error path: the API
// contract says all bodies are JSON, so error replies must carry the JSON
// content type too (http.Error's text/plain broke clients that unmarshal
// every reply).
func TestHandlerErrorContentType(t *testing.T) {
	_, ts := newTestServer(t, Config{Benchmark: "tpch"})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		code   int
	}{
		{"query_get", http.MethodGet, "/query", "", http.StatusMethodNotAllowed},
		{"query_bad_json", http.MethodPost, "/query", "{", http.StatusBadRequest},
		{"query_unknown_number", http.MethodPost, "/query", `{"query":99}`, http.StatusBadRequest},
		{"query_conflicting_shapes", http.MethodPost, "/query", `{"query":6,"select_sum":{"table":"lineitem","column":"l_quantity"}}`, http.StatusBadRequest},
		{"query_bad_table", http.MethodPost, "/query", `{"select_rows":{"table":"nope","column":"l_quantity"}}`, http.StatusBadRequest},
		{"query_unknown_tenant", http.MethodPost, "/query", `{"query":6,"tenant":"ghost"}`, http.StatusNotFound},
		{"sessions_post", http.MethodPost, "/sessions", "", http.StatusMethodNotAllowed},
		{"trace_unknown_session", http.MethodGet, "/sessions/nope/trace", "", http.StatusNotFound},
		{"trace_bad_route", http.MethodGet, "/sessions/nope/nope", "", http.StatusNotFound},
		{"stats_post", http.MethodPost, "/stats", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body *bytes.Reader
			if tc.body != "" {
				body = bytes.NewReader([]byte(tc.body))
			} else {
				body = bytes.NewReader(nil)
			}
			hreq, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(hreq)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.code)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			var er errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if er.Error == "" {
				t.Fatal("error body has no error field")
			}
		})
	}
}

// TestAdaptiveRepliesEqualSerialUntilConverged is the serving invariant on
// the path the daemon runs by default: every adaptive reply of a join query
// — each mutated plan the convergence tries, then the converged plan —
// carries the serial plan's values. TPC-H Q9 at SF 1 is where builds before
// PR 19 served a wrong result from run 22 on, forever.
func TestAdaptiveRepliesEqualSerialUntilConverged(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-convergence serving test in -short mode")
	}
	cat := tpch.Generate(tpch.Config{SF: 1, Seed: 42})
	_, ts := newTestServer(t, Config{
		Benchmark:  "tpch",
		DBIdentity: "tpch:sf=1:seed=42",
		Engines:    []*exec.Engine{exec.NewEngine(cat, sim.TwoSocket(), cost.Default())},
	})
	serial, err := DecodeResult(postResultRaw(t, ts.URL, QueryRequest{Query: 9, Mode: "serial"}, false))
	if err != nil {
		t.Fatal(err)
	}
	afterConverged := 0
	for i := 0; i < 2000 && afterConverged < 5; i++ {
		p, err := DecodeResult(postResultRaw(t, ts.URL, QueryRequest{Query: 9}, false))
		if err != nil {
			t.Fatal(err)
		}
		if !exec.ResultsEqual(p.Values, serial.Values) {
			t.Fatalf("request %d (run %d, state %q): adaptive reply differs from the serial reply", i, p.Meta.Run, p.Meta.State)
		}
		if p.Meta.State == "converged" {
			afterConverged++
		}
	}
	if afterConverged == 0 {
		t.Fatal("Q9 never converged")
	}
}
