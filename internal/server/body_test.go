package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/tpch"
)

// FuzzAppendBody is decodeAppend's differential oracle: for every input,
// json.Unmarshal into one appendRequest and decodeAppend into another must
// both accept or both refuse, and on acceptance be reflect.DeepEqual — nil
// and empty differ, because AppendRows reads Strs != nil. The seeds run in
// every plain go test; each names a rule of encoding/json's the decoder
// keeps.
func FuzzAppendBody(f *testing.F) {
	cat := tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
	for _, table := range []string{"lineitem", "part"} {
		f.Add(writerAppendBody(f, cat, table, 8, 42))
	}
	for _, seed := range []string{
		`null`,
		` {"table":"t","columns":{}} `,
		// A second "columns" merges; a repeated column name's last value
		// wins whole; a null "columns" clears what came before.
		`{"table":"t","columns":{"a":{"ints":[1]}},"columns":{"b":{"strs":["x"]}}}`,
		`{"columns":{"a":{"ints":[1,2]},"a":{"strs":["y"]}}}`,
		`{"columns":{"a":{}},"columns":null,"columns":{"b":{}}}`,
		// Keys fold case; a null string field keeps the earlier value.
		`{"Table":"t","COLUMNS":{"a":{"Ints":[1],"STRS":null}},"TeNaNt":"x","table":null}`,
		`{"columnſ":{"a":{"intſ":[1]}}}`,
		// null as a column, an array, an element.
		`{"columns":{"a":null,"b":{"ints":null,"strs":[null,"s"]},"c":{"ints":[1,null,3]}}}`,
		// A repeated array key refills the first's slots: a null element
		// keeps what the slot held, and [] starts over from nothing.
		`{"columns":{"a":{"ints":[1,2,3],"ints":[4],"ints":[5,null]}}}`,
		`{"columns":{"a":{"ints":[1,2],"ints":[],"ints":[null]}}}`,
		`{"columns":{"a":{"strs":["p","q"],"strs":[null]}}}`,
		`{"columns":{"a":{"strs":["a","b","c"],"strs":["d"],"strs":["e",null]}}}`,
		// int64 edges.
		`{"columns":{"a":{"ints":[9223372036854775807,-9223372036854775808]}}}`,
		`{"columns":{"a":{"ints":[9223372036854775808]}}}`,
		`{"columns":{"a":{"ints":[-9223372036854775809]}}}`,
		`{"columns":{"a":{"ints":[-0]}}}`,
		`{"columns":{"a":{"ints":[01]}}}`,
		`{"columns":{"a":{"ints":[1.0]}}}`,
		`{"columns":{"a":{"ints":[1e2]}}}`,
		// Strings that are not their bytes.
		`{"table":"a\"b\\c\/é\t","columns":{"xA":{"strs":["😀","\ud83d","é"]}}}`,
		"{\"table\":\"\xff\",\"columns\":{\"\xfe\":{\"strs\":[\"a\xffb\"]}}}",
		// Unknown keys, holding nested values, at every level.
		`{"x":{"y":[1,{"z":null}],"w":"v"},"columns":{"a":{"ints":[1],"n":[[],{},true,false,-1.5e+3]}},"table":"t"}`,
		`{"columns":{"a":{"n":5}},"x":-0.25E-7}`,
		`{"x":1}`,
		// Refusals: syntax, shape and type.
		``, `{`, `[]`, `"t"`, `{"table":1}`, `{"columns":[]}`, `{"columns":{"a":1}}`,
		`{"columns":{"a":{"ints":"7"}}}`, `{"columns":{"a":{"strs":[1]}}}`,
		`{"columns":{"a":{"ints":[1,]}}}`, `{"x":nul}`, `{"table":"t"} x`, "{\"table\":\"\x01\"}",
		`{"table":"\x"}`, `{"table":"\u12g4"}`, `{"x":01}`, `{"x":1.}`, `{"x":1e}`, `{"x":-}`,
		// Where an array leaves the one-loop and one-copy fast paths:
		// whitespace around elements and commas, null elements, an escaped
		// and a non-ASCII string between plain ones.
		"{\"columns\":{\"a\":{\"ints\":[ 1 ,\t2\n,\r3 ],\"strs\":[ \"x\" , \"y\",\"z\"\n]}}}",
		`{"columns":{"a":{"ints":[null,1,null],"strs":["x",null,"y"]},"b":{"strs":[null]}}}`,
		`{"columns":{"a":{"strs":["x","y\"z","w"]},"b":{"strs":["x","\u00e9","é","w"]}}}`,
		"{\"columns\":{\"a\":{\"strs\":[\"x\",\"\xff\"]}}}",
		// int edges inside the loop.
		`{"columns":{"a":{"ints":[-0,-17,1234567890123456789,-9223372036854775808]}}}`,
		`{"columns":{"a":{"ints":[-01]}}}`, `{"columns":{"a":{"ints":[00]}}}`,
		`{"columns":{"a":{"ints":[12345678901234567890]}}}`, `{"columns":{"a":{"ints":[nul]}}}`,
		// A plain array holding ']' or ',' in a token, empty tokens, and a
		// repeated key's plain array refilling the first's slots.
		`{"columns":{"a":{"strs":["a]b","c"]},"b":{"strs":["a","]"]},"c":{"strs":["]"]},"d":{"strs":["a,b",""]}}}`,
		`{"columns":{"a":{"strs":[""]},"b":{"strs":["",""]},"c":{"strs":["p","q"],"strs":["r"]}}}`,
		`{"columns":{"a":{"strs":["a"b"]}}}`, `{"columns":{"a":{"strs":["a",b"]}}}`, `{"columns":{"a":{"strs":["a","b"c]}}}`,
		`{"columns":{"a":{"strs":["a"x"b"]}}}`, "{\"columns\":{\"a\":{\"strs\":[\"a\x1f,\"b\"]}}}", "{\"columns\":{\"a\":{\"strs\":[\"a\x1f]}}}",
		// A body cut off inside a "strs" array.
		`{"columns":{"a":{"strs":["abc","de`, `{"columns":{"a":{"strs":["abc",`, `{"columns":{"a":{"strs":["abc"`,
	} {
		f.Add([]byte(seed))
	}
	// The eight-byte scan of a plain string: its closing quote, and each byte
	// that ends the plain run (a control byte, '"' and '\' escaped, a byte >=
	// 0x80) or does not (0x7f), on each of the eight lanes of a word.
	var lanes []string
	for lane := 0; lane < 8; lane++ {
		x := strings.Repeat("x", lane)
		lanes = append(lanes, x, x+`\"y`, x+`\\y`, x+"\x7fy", x+"\xc3\xa9y")
		f.Add([]byte(`{"columns":{"a":{"strs":["` + x + "\x1fy" + `","ok"]}},"pad":"12345678"}`))
	}
	f.Add([]byte(`{"columns":{"a":{"strs":["` + strings.Join(lanes, `","`) + `"]}},"pad":"12345678"}`))
	f.Fuzz(func(t *testing.T, body []byte) { decodesLikeJSON(t, body, decodeAppend) })
}

// decodesLikeJSON fails t unless json.Unmarshal into one T and decode into
// another both accept body or both refuse it, and on acceptance agree under
// reflect.DeepEqual. decode must leave body as it found it.
func decodesLikeJSON[T any](t *testing.T, body []byte, decode func([]byte, *T) error) {
	var want, got T
	werr := json.Unmarshal(body, &want)
	orig := bytes.Clone(body)
	gerr := decode(body, &got)
	if !bytes.Equal(body, orig) {
		t.Fatalf("%.200q: the decoder changed the body to %.200q", orig, body)
	}
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%.200q: encoding/json says %v, the decoder says %v", body, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("%.200q: encoding/json decodes %#v, the decoder %#v", body, want, got)
	}
}

// FuzzQueryBody is decodeQuery's differential oracle, as FuzzAppendBody is
// decodeAppend's; it also fails when a decoded string shares memory with the
// body, which is pooled. Each seed group names a rule of encoding/json's.
func FuzzQueryBody(f *testing.F) {
	for _, seed := range []string{
		// The benchmark's hot and serial bodies, and the other shapes.
		`{"select_sum":{"column":"p_size","hi":15,"lo":10,"table":"part"}}`,
		`{"mode":"serial","select_sum":{"column":"p_size","hi":15,"lo":10,"table":"part"}}`,
		`{"query":6}`, `{"query":9,"mode":"adaptive","max_cores":4,"results":true,"tenant":"t","benchmark":"tpch"}`,
		`{"select_rows":{"table":"lineitem","column":"l_quantity","hi":2},"results":false}`,
		// Keys fold case, ſ to s and the Kelvin sign to k.
		`{"QUERY":6,"Mode":"serial","RESULTS":true,"Max_Cores":2}`,
		"{ \"query\" :\t6 , \"results\":\ntrue,\"select_sum\" : { \"lo\": -1 ,\"hi\":\r2 } }",
		`{"ſelect_ſum":{"TABLE":"t","ColumN":"c","LO":1,"hI":2}}`,
		`{"benchmarK":"tpch","select_rowſ":{"table":"t"}}`,
		// A repeated key's last value wins; a repeated spec object merges
		// into the first, and a null between them starts over.
		`{"query":1,"query":6,"mode":"a","mode":"b","results":true,"results":false}`,
		`{"select_sum":{"table":"a","lo":1},"select_sum":{"column":"b","hi":2},"select_sum":{"lo":3}}`,
		`{"select_sum":{"table":"a","hi":2},"select_sum":null,"select_sum":{"column":"b"}}`,
		`{"select_sum":{"lo":1,"lo":null,"lo":2,"hi":5,"hi":null}}`,
		// null at each level: the body, a string, an int, a bool, a spec, a
		// bound, a spec's string.
		`null`, ` null `,
		`{"tenant":"x","tenant":null,"query":6,"query":null,"results":true,"results":null,"max_cores":null}`,
		`{"select_sum":null,"select_rows":{"table":"t","table":null,"column":null,"lo":null,"hi":null}}`,
		// "query" takes the JSON integer grammar within int64.
		`{"query":6.0}`, `{"query":1e2}`, `{"query":-0}`, `{"query":01}`, `{"query":9223372036854775808}`,
		`{"query":"6"}`, `{"query":9223372036854775807}`, `{"query":-9223372036854775808}`,
		`{"query":-9223372036854775809}`, `{"query":-}`, `{"query":1.}`, `{"query":true}`,
		// Bounds at the int64 edges and one past them.
		`{"select_sum":{"table":"t","column":"c","lo":-9223372036854775808,"hi":9223372036854775807}}`,
		`{"select_sum":{"lo":-9223372036854775809}}`, `{"select_sum":{"hi":9223372036854775808}}`,
		`{"select_sum":{"lo":1.5}}`, `{"select_sum":{"hi":"2"}}`,
		// Strings that are not their bytes.
		`{"select_rows":{"table":"a\"b\\c\/é\t<&>","column":"😀"},"mode":"\u0073erial"}`,
		`{"select_sum":{"table":"\ud83d","column":"\ud83d\ude00x"},"tenant":"\u00e9"}`,
		"{\"select_sum\":{\"table\":\"\xff\",\"column\":\"a\xfeb\"},\"\xff\":1}",
		// Unknown keys, holding nested values, at both levels.
		`{"x":{"y":[1,{"z":null}],"w":"v"},"query":6,"n":[[],{},true,false,-1.5e+3]}`,
		`{"select_sum":{"n":{"m":[null]},"table":"t","e":-0.25E-7},"x":"y"}`,
		// Refusals: syntax, shape and type.
		``, `[]`, `"q"`, `6`, `{"query":6} x`, `{"query":6}}`, `{"query":6,}`, `{"query" 6}`,
		`{"mode":6}`, `{"tenant":["t"]}`, `{"results":"true"}`, `{"results":1}`, `{"select_sum":[]}`,
		`{"select_sum":5}`, `{"select_sum":"t"}`, `{"select_sum":{"table":1}}`, `{"x":nul}`, `{"x":01}`,
		"{\"mode\":\"\x01\"}", `{"mode":"\x"}`,
		// Bodies cut off inside the spec.
		`{"select_sum":{"table":"lineitem","col`, `{"select_sum":{"lo":12`, `{"select_sum":{"table":"t"`,
		`{"select_sum":{`, `{"select_sum":`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		decodesLikeJSON(t, body, decodeQuery)
		var req QueryRequest
		if decodeQuery(body, &req) != nil {
			return
		}
		kept := []string{req.Tenant, req.Benchmark, req.Mode}
		for _, sp := range []*SelectSumSpec{req.SelectSum, req.SelectRows} {
			if sp != nil {
				kept = append(kept, sp.Table, sp.Column)
			}
		}
		for _, s := range kept {
			if p := unsafe.StringData(s); len(s) > 0 && len(body) > 0 &&
				uintptr(unsafe.Pointer(p)) >= uintptr(unsafe.Pointer(&body[0])) &&
				uintptr(unsafe.Pointer(p)) < uintptr(unsafe.Pointer(&body[0]))+uintptr(len(body)) {
				t.Fatalf("%.200q: %q shares the body's memory", body, s)
			}
		}
	})
}

// TestAppendBodyDepthLimit: encoding/json refuses a body nesting more than
// 10 000 objects and arrays at once, so decodeAppend does, even inside a
// skipped value. Not a fuzz seed: the fuzzer's minimizer spends its time
// budget shrinking 20 KB inputs.
func TestAppendBodyDepthLimit(t *testing.T) {
	for _, arrays := range []int{9999, 10000} {
		body := `{"x":` + strings.Repeat("[", arrays) + strings.Repeat("]", arrays) + `}`
		decodesLikeJSON(t, []byte(body), decodeAppend)
		if err := decodeAppend([]byte(body), new(appendRequest)); (err == nil) != (arrays < 10000) {
			t.Errorf("%d nested arrays in the body object: %v", arrays, err)
		}
	}
}

// TestAppendBodyAllocs: decoding the benchmark writer's bodies allocates per
// array, not per value — the slices, one copy of each "strs" array, the map
// and the keys. Each bound is the measured count + ~10 % (go1.24: part at SF
// 0.5 23 allocations, lineitem at SF 1 39); a string copied per value reads
// 2 429 for part.
func TestAppendBodyAllocs(t *testing.T) {
	skipIfPoolsAreLossy(t)
	for _, body := range []struct {
		table     string
		sf        float64
		maxAllocs float64
	}{{"part", 0.5, 26}, {"lineitem", 1, 43}} {
		data := writerAppendBody(t, tpch.Generate(tpch.Config{SF: body.sf, Seed: 42}), body.table, 600, 42)
		allocs := testing.AllocsPerRun(20, func() {
			var req appendRequest
			if err := decodeAppend(data, &req); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per decode", body.table, allocs)
		if allocs > body.maxAllocs {
			t.Errorf("%s: %.0f allocations per decode, want <= %.0f: a value is copied on its own", body.table, allocs, body.maxAllocs)
		}
	}
}

// FuzzQueryReply is appendQueryResponse's byte-equality oracle: for every
// response the fuzzer builds, the appended bytes must be json.Marshal's, the
// JSON reply encode writes must be json.Encoder's (trailing newline
// included), and the APQRESULT reply must be EncodeResult's. A NaN or
// infinite float answers 500 with encoding/json's error, as JSON.
func FuzzQueryReply(f *testing.F) {
	add := func(r QueryResponse) {
		f.Add(r.Session, r.Fingerprint, r.Query, r.Tenant, r.State, r.Shard, r.Run, r.DOP, r.MaxCores, r.NumValues,
			r.CacheHit, r.Degraded, r.LatencyNs, r.BestLatencyNs, r.SerialLatencyNs, r.Speedup)
	}
	add(QueryResponse{Session: "s1", Fingerprint: "9f86d081884c7d65", Query: "select_sum(part.p_size)", State: "converged",
		Run: 131, CacheHit: true, LatencyNs: 39247, BestLatencyNs: 39247, SerialLatencyNs: 240118.5, Speedup: 6.118, DOP: 1, NumValues: 1})
	add(QueryResponse{Query: "tpch:q6", Tenant: "t", State: "serial", Run: -1, LatencyNs: 1e-7, DOP: 1, MaxCores: -3, Degraded: true})
	add(QueryResponse{})
	for _, s := range []string{"<>&", "a&b", "a>", "a\x00b\x1f\t\n\r\b\f\x7f", "\xff\xfe", "a\u2028b\u2029", "é😀", `"\/`, "\xed\xa0\x80"} {
		add(QueryResponse{Session: s, Fingerprint: s, Query: s, Tenant: s, State: s})
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e20, 1e21, 123456789e-15, 5e-324,
		2.2250738585072014e-308 / 3, math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		add(QueryResponse{Query: "q", LatencyNs: x, BestLatencyNs: x, SerialLatencyNs: -x, Speedup: x, Shard: -1, Run: math.MinInt})
	}
	f.Fuzz(func(t *testing.T, session, fp, query, tenant, state string, shard, run, dop, maxCores, numValues int,
		hit, degraded bool, lat, best, serial, speedup float64) {
		resp := QueryResponse{Session: session, Fingerprint: fp, Query: query, Tenant: tenant, Shard: shard, State: state,
			Run: run, CacheHit: hit, LatencyNs: lat, BestLatencyNs: best, SerialLatencyNs: serial, Speedup: speedup,
			DOP: dop, MaxCores: maxCores, NumValues: numValues, Degraded: degraded}
		want, werr := json.Marshal(&resp)
		got, gerr := appendQueryResponse([]byte("x"), &resp)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("%+v: json.Marshal says %v, appendQueryResponse %v", resp, werr, gerr)
		}
		if werr == nil && (string(got[:1]) != "x" || !bytes.Equal(got[1:], want)) {
			t.Fatalf("%+v:\njson.Marshal         %s\nappendQueryResponse %s", resp, want, got)
		}

		var reply bytes.Buffer
		code := http.StatusOK
		if err := json.NewEncoder(&reply).Encode(&resp); err != nil {
			reply.Reset()
			json.NewEncoder(&reply).Encode(errorResponse{Error: err.Error()})
			code = http.StatusInternalServerError
		}
		b := getIOBuf()
		defer putIOBuf(b)
		rec := httptest.NewRecorder()
		new(Server).encode(b, rec, false, resp, nil)
		if rec.Code != code || rec.Header().Get("Content-Type") != "application/json" || !bytes.Equal(rec.Body.Bytes(), reply.Bytes()) {
			t.Fatalf("%+v: reply %d %q %q, json.Encoder %d %q", resp, rec.Code, rec.Header().Get("Content-Type"), rec.Body, code, reply.Bytes())
		}
		if werr != nil {
			return
		}
		doc, err := EncodeResult(&resp, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec = httptest.NewRecorder()
		new(Server).encode(b, rec, true, resp, nil)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != ResultContentType || !bytes.Equal(rec.Body.Bytes(), doc) {
			t.Fatalf("%+v: APQRESULT reply %d %q differs from EncodeResult's", resp, rec.Code, rec.Header().Get("Content-Type"))
		}
	})
}
