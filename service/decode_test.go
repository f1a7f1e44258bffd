package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// benchTable is a raw table shaped like the repository benchmark's: keys
// drawn from a 2²² domain, standard-normal values in shortest form.
func benchTable(rng *rand.Rand, rows int, cols ...string) TablePayload {
	p := TablePayload{Keys: make([]uint64, rows), Columns: map[string][]float64{}}
	for i := range p.Keys {
		p.Keys[i] = rng.Uint64N(1 << 22)
	}
	for _, c := range cols {
		vs := make([]float64, rows)
		for i := range vs {
			vs[i] = rng.NormFloat64()
		}
		p.Columns[c] = vs
	}
	return p
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// benchBodies returns request bodies in the shapes the repository
// benchmark and the client send, encoded as they encode them: an inline
// raw /search of rows×1, a raw PUT of rows/2×2, a sketched and an
// lsh-mode /search, and a sketched /search that sets every other field.
func benchBodies(tb testing.TB, rows int) map[string][]byte {
	rng := rand.New(rand.NewPCG(1, 2))
	k := 10
	query := benchTable(rng, rows, "v")
	put := benchTable(rng, rows/2, "v", "w")
	bundle := make([]byte, 13000)
	for i := range bundle {
		bundle[i] = byte(rng.Uint32())
	}
	b64 := base64.StdEncoding.EncodeToString(bundle)
	return map[string][]byte{
		"search_raw":    mustMarshal(tb, SearchRequest{Table: &query, Column: "v", RankBy: "join_size", K: &k}),
		"put_raw":       mustMarshal(tb, put),
		"search_sketch": mustMarshal(tb, SearchRequest{SketchB64: b64, Column: "v", RankBy: "join_size", K: &k}),
		"search_lsh":    mustMarshal(tb, SearchRequest{SketchB64: b64, Column: "v", RankBy: "join_size", K: &k, Mode: SearchModeLSH, Probes: 4}),
		"search_named": mustMarshal(tb, SearchRequest{SketchB64: b64, TableName: "q007", Column: "v", RankBy: "abs_correlation",
			MinJoin: 2.5, K: &k, Mode: SearchModeFull, Probes: 3}),
	}
}

// tableView is a TablePayload with floats as bit patterns, so that
// reflect.DeepEqual tells -0 from 0 and keeps nil apart from empty.
type tableView struct {
	Keys       []uint64
	StringKeys []string
	Columns    map[string][]uint64
	Agg        string
}

func viewTable(p *TablePayload) *tableView {
	if p == nil {
		return nil
	}
	v := &tableView{Keys: p.Keys, StringKeys: p.StringKeys, Agg: p.Agg}
	if p.Columns != nil {
		v.Columns = make(map[string][]uint64, len(p.Columns))
		for name, vs := range p.Columns {
			var bits []uint64
			if vs != nil {
				bits = make([]uint64, len(vs))
				for i, x := range vs {
					bits[i] = math.Float64bits(x)
				}
			}
			v.Columns[name] = bits
		}
	}
	return v
}

func viewSearch(r SearchRequest) any {
	table, minJoin := viewTable(r.Table), math.Float64bits(r.MinJoin)
	r.Table, r.MinJoin = nil, 0
	return struct {
		Req     SearchRequest
		Table   *tableView
		MinJoin uint64
	}{r, table, minJoin}
}

func viewPayload(p TablePayload) any { return viewTable(&p) }

// checkDecoder decodes body through decode and through encoding/json
// alone, and fails unless both return the same error text or, without
// error, the same value. It reports whether the fast path accepted body.
func checkDecoder[T any](t *testing.T, body []byte, decode func([]byte) (T, error), fast func(*decoder, *T) bool, view func(T) any) bool {
	t.Helper()
	var want T
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	var fastV T
	accepted := fast(&decoder{b: body}, &fastV)
	if accepted && wantErr != nil {
		t.Fatalf("fast path accepted %.200q, encoding/json refused it: %v", body, wantErr)
	}
	got, err := decode(body)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("body %.200q: error %v, encoding/json says %v", body, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(view(got), view(want)) {
		t.Fatalf("body %.200q (fast path %v): decoded\n%+v\nencoding/json decoded\n%+v", body, accepted, view(got), view(want))
	}
	return accepted
}

// TestBenchBodiesTakeFastPath: every body the benchmark and the client
// send takes the single-pass path, so a regression to the fallback shows
// here and not only as a slower benchmark.
func TestBenchBodiesTakeFastPath(t *testing.T) {
	for name, body := range benchBodies(t, 2000) {
		var fast bool
		if name == "put_raw" {
			fast = checkDecoder(t, body, decodeTablePayload, (*decoder).tablePayload, viewPayload)
		} else {
			fast = checkDecoder(t, body, decodeSearchRequest, (*decoder).searchRequest, viewSearch)
		}
		if !fast {
			t.Errorf("%s body (%d bytes) fell back to encoding/json", name, len(body))
		}
	}
}

// FuzzDecodeRequestBody: for any body, decodeSearchRequest and
// decodeTablePayload return what encoding/json returns — the same error
// text, or the same value with floats compared by bit pattern — and the
// fast path accepts nothing encoding/json refuses.
func FuzzDecodeRequestBody(f *testing.F) {
	bodies := benchBodies(f, 16)
	for _, name := range []string{"search_raw", "put_raw", "search_lsh", "search_named"} {
		f.Add(bodies[name])
	}
	raw := bodies["search_raw"]
	for _, s := range []string{
		// Field names the fast path does not take: escaped, differently
		// cased, the Kelvin sign that folds to k, unknown.
		`{"column":"v","rank_by":"size"}`,
		`{"Column":"v","table":{"Keys":[1,2],"columns":{"v":[1,2]}}}`,
		`{"column":"v","K":3}`,
		`{"\u0063olumn":"v","\u212a":3,"K":4}`,
		`{"column":"v","extra":[1,{"a":null}]}`,
		`{"column":"café","table":{"string_keys":["a\"b","é"],"columns":{"v":[1,2]}}}`,
		// Strings the fast path does not take: escapes, valid and invalid
		// UTF-8, control bytes.
		`{"column":"a\\c\u0041\/","rank_by":"x"}`,
		"{\"column\":\"caf\u00e9\",\"table_name\":\"\xff\xfe\",\"rank_by\":\"\x7f\"}",
		"{\"column\":\"a\tb\"}",
		// null for a field, an array and an element.
		`null`,
		`{"table":null,"k":null}`,
		`{"keys":null,"columns":{"v":[1,null]}}`,
		`{"keys":[1,null],"columns":null}`,
		// Repeated fields and columns.
		`{"column":"a","column":"b"}`,
		`{"keys":[1],"keys":[2,3],"columns":{"v":[1]}}`,
		`{"keys":[1,2],"columns":{"v":[1,2],"v":[3]}}`,
		`{"table":{"keys":[1]},"table":{"agg":"sum"}}`,
		`{"column":"v","k":-0,"probes":9223372036854775808,"min_join_size":-0}`,
		`{"column":"v","local_only":true,"k":1e1}`,
		`{"local_only":truex}`,
		// Whitespace, empty containers, trailing bytes.
		" \t\n{ \"keys\" : [ 1 , 2 ] ,\r\"columns\" : { \"v\" : [ ] } , \"string_keys\" : [ ] } ",
		`{}`,
		`{"column":"v"} trailing garbage`,
		`{"column":"v"}{"column":"w"}`,
		``,
		string(raw[:len(raw)/2]),
	} {
		f.Add([]byte(s))
	}
	// Numbers in each position: out of range (1e400, 2⁶⁴), negative zero,
	// the smallest subnormal, a leading zero, fractions and exponents where
	// an integer goes, and the forms strconv takes but JSON does not.
	for _, n := range []string{"-1", "1.5", "1e3", "01", "18446744073709551616", "18446744073709551615",
		"1e400", "-0", "4.9e-324", "-0.0e+0", "1E+2", "+1", "1.", ".5", "0x1p3", "inf", "1_0", "1e", "-", "0.e1"} {
		f.Add([]byte(`{"keys":[` + n + `],"columns":{"v":[1]}}`))
		f.Add([]byte(`{"keys":[1],"columns":{"v":[` + n + `]}}`))
		f.Add([]byte(`{"column":"v","k":` + n + `,"min_join_size":` + n + `}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecoder(t, body, decodeSearchRequest, (*decoder).searchRequest, viewSearch)
		checkDecoder(t, body, decodeTablePayload, (*decoder).tablePayload, viewPayload)
	})
}
