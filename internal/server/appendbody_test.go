package server

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

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
	f.Fuzz(decodesLikeJSON)
}

func decodesLikeJSON(t *testing.T, body []byte) {
	var want, got appendRequest
	werr := json.Unmarshal(body, &want)
	gerr := decodeAppend(body, &got)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%.200q: encoding/json says %v, decodeAppend says %v", body, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("%.200q: encoding/json decodes %#v, decodeAppend %#v", body, want, got)
	}
}

// TestAppendBodyDepthLimit: encoding/json refuses a body nesting more than
// 10 000 objects and arrays at once, so decodeAppend does, even inside a
// skipped value. Not a fuzz seed: the fuzzer's minimizer spends its time
// budget shrinking 20 KB inputs.
func TestAppendBodyDepthLimit(t *testing.T) {
	for _, arrays := range []int{9999, 10000} {
		body := `{"x":` + strings.Repeat("[", arrays) + strings.Repeat("]", arrays) + `}`
		decodesLikeJSON(t, []byte(body))
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
