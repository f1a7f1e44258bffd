package service_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	ipsketch "repro"
	"repro/internal/wire"
	"repro/service"
)

// send issues one request and returns the status and, for an error, the
// ErrorResponse text.
func send(t *testing.T, method, url, ctype string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e service.ErrorResponse
	if resp.StatusCode >= 300 {
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s %s: %d with an undecodable body: %v", method, url, resp.StatusCode, err)
		}
	}
	return resp.StatusCode, e.Error
}

// TestServiceOversizedBody413: a body over MaxBodyBytes is a 413 naming
// the limit on every endpoint that reads one, in both body formats.
func TestServiceOversizedBody413(t *testing.T) {
	const limit = 1024
	srv, err := service.New(service.Config{Sketch: testSketchCfg, KeySpace: testKeySpace, MaxBodyBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = uint64(i)
	}
	big := service.TablePayload{Keys: keys, Columns: map[string][]float64{"v": make([]float64, len(keys))}}
	table := mustJSON(t, big)
	search := mustJSON(t, service.SearchRequest{Table: &big, Column: "v", RankBy: "join_size"})
	estimate := mustJSON(t, service.EstimateRequest{TableA: strings.Repeat("a", limit), ColumnA: "v", TableB: "b", ColumnB: "v"})
	want := fmt.Sprintf("service: request body exceeds the %d-byte limit", limit)
	check := func(method, url, ctype string, body []byte) {
		t.Helper()
		if status, msg := send(t, method, url, ctype, body); status != http.StatusRequestEntityTooLarge || msg != want {
			t.Errorf("%s %s (%s, %d bytes): %d %q, want 413 %q", method, url, ctype, len(body), status, msg, want)
		}
	}
	for _, ctype := range []string{"application/json", "application/octet-stream"} {
		check("PUT", hs.URL+"/tables/t", ctype, table)
		check("POST", hs.URL+"/tables/t/merge", ctype, table)
	}
	check("POST", hs.URL+"/search", "application/json", search)
	check("POST", hs.URL+"/estimate", "application/json", estimate)
	if st := srv.Catalog().Len(); st != 0 {
		t.Fatalf("oversized bodies cataloged %d tables", st)
	}

	// A body under the limit is decoded as before.
	small := service.TablePayload{Keys: []uint64{1, 2}, Columns: map[string][]float64{"v": {1, 2}}}
	if status, msg := send(t, "PUT", hs.URL+"/tables/t", "application/json", mustJSON(t, small)); status != http.StatusOK {
		t.Fatalf("small PUT: %d %s", status, msg)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServiceHostileNumbers: keys and values that are not what their Go
// type holds are a 400 with encoding/json's own message on every
// raw-columns path — PUT, merge and an inline /search — while negative
// zero and the smallest subnormal are taken as values, sketched to the
// bytes SketchTable makes of them in process.
func TestServiceHostileNumbers(t *testing.T) {
	srv, _ := newTestServer(t, service.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	for _, tc := range []struct{ keys, values string }{
		{keys: "1,-1", values: "1,2"},
		{keys: "1,1.5", values: "1,2"},
		{keys: "1,1e3", values: "1,2"},
		{keys: "1,01", values: "1,2"},
		{keys: "1,18446744073709551616", values: "1,2"},
		{keys: "1,2", values: "1,1e400"},
	} {
		table := `{"keys":[` + tc.keys + `],"columns":{"v":[` + tc.values + `]}}`
		search := `{"table":` + table + `,"column":"v","rank_by":"join_size"}`
		var p service.TablePayload
		tableErr := json.NewDecoder(strings.NewReader(table)).Decode(&p)
		var req service.SearchRequest
		searchErr := json.NewDecoder(strings.NewReader(search)).Decode(&req)
		if tableErr == nil || searchErr == nil {
			t.Fatalf("encoding/json takes %s", table)
		}
		for _, c := range []struct {
			method, path, body, want string
		}{
			{"PUT", "/tables/h", table, "service: decoding table payload: " + tableErr.Error()},
			{"POST", "/tables/h/merge", table, "service: decoding table payload: " + tableErr.Error()},
			{"POST", "/search", search, "service: decoding search request: " + searchErr.Error()},
		} {
			if status, msg := send(t, c.method, hs.URL+c.path, "application/json", []byte(c.body)); status != http.StatusBadRequest || msg != c.want {
				t.Errorf("%s %s %s: %d %q, want 400 %q", c.method, c.path, c.body, status, msg, c.want)
			}
		}
	}

	ts, err := ipsketch.NewTableSketcher(testSketchCfg, testKeySpace)
	if err != nil {
		t.Fatal(err)
	}
	keys, values := []uint64{1, 2, 3, 4}, []float64{math.Copysign(0, -1), 5e-324, 1.5, -2}
	const table = `{"keys":[1,2,3,4],"columns":{"v":[-0,4.9e-324,1.5,-2]}}`
	for _, c := range []struct{ method, path, name string }{
		{"PUT", "/tables/put", "put"},
		{"POST", "/tables/merge/merge", "merge"},
	} {
		if status, msg := send(t, c.method, hs.URL+c.path, "application/json", []byte(table)); status != http.StatusOK {
			t.Fatalf("%s %s: %d %s", c.method, c.path, status, msg)
		}
		tab, err := ipsketch.NewTable(c.name, keys, map[string][]float64{"v": values})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ts.SketchTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := srv.Catalog().Get(c.name)
		if !ok {
			t.Fatalf("%s %s cataloged nothing", c.method, c.path)
		}
		gotBytes, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := want.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("%s %s: the cataloged sketch differs from SketchTable's", c.method, c.path)
		}
	}
	// The inline query ranks the two tables as the in-process index ranks
	// them against SketchTable's query sketch.
	ix := ipsketch.NewSketchIndex()
	for _, name := range []string{"merge", "put"} {
		sk, _ := srv.Catalog().Get(name)
		if err := ix.Add(sk); err != nil {
			t.Fatal(err)
		}
	}
	qTab, err := ipsketch.NewTable("", keys, map[string][]float64{"v": values})
	if err != nil {
		t.Fatal(err)
	}
	qSk, err := ts.SketchTable(qTab)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ix.Search(ipsketch.Query{Sketch: qSk, Column: "v", RankBy: ipsketch.RankByJoinSize, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/search", "application/json",
		strings.NewReader(`{"table":`+table+`,"column":"v","rank_by":"join_size"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr service.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("inline /search with -0 and 4.9e-324: %d, %v", resp.StatusCode, err)
	}
	got := make([]ipsketch.SearchResult, len(sr.Results))
	for i, h := range sr.Results {
		got[i] = h.Result()
	}
	requireSameRanking(t, got, want, "inline query with -0 and 4.9e-324")
}

// TestServiceNonFiniteBundle400: an octet-stream bundle with a NaN or +Inf
// stored sample value is a 400 on PUT and on merge, and nothing is
// cataloged; the same bundle uncorrupted is taken.
func TestServiceNonFiniteBundle400(t *testing.T) {
	srv, _ := newTestServer(t, service.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	ts, err := ipsketch.NewTableSketcher(testSketchCfg, testKeySpace)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ipsketch.NewTable("t", []uint64{1, 2, 3}, map[string][]float64{"v": {1, -2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ts.SketchTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const octet = "application/octet-stream"
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		// A bundle ends with its last column's squared-value sketch, and
		// a sampling sketch's payload ends with its stored values.
		c := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(c[len(c)-8:], math.Float64bits(bad))
		for _, req := range []struct{ method, path string }{{"PUT", "/tables/t"}, {"POST", "/tables/t/merge"}} {
			if status, msg := send(t, req.method, hs.URL+req.path, octet, c); status != http.StatusBadRequest {
				t.Errorf("%s %s with a stored %v: %d %q, want 400", req.method, req.path, bad, status, msg)
			}
		}
	}
	if n := srv.Catalog().Len(); n != 0 {
		t.Fatalf("corrupt bundles cataloged %d tables", n)
	}
	if status, msg := send(t, "PUT", hs.URL+"/tables/t", octet, data); status != http.StatusOK {
		t.Fatalf("clean bundle: %d %q", status, msg)
	}
}

// TestServiceHugeLinearCount400: an octet-stream bundle whose key sketch
// is a JL header of 2⁶¹ rows with no rows behind it is a 400 on a
// WMH-serving daemon — the decoder refuses the count before the pin check
// runs, and sizes nothing from it — and nothing is cataloged.
func TestServiceHugeLinearCount400(t *testing.T) {
	srv, _ := newTestServer(t, service.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	var key wire.Writer // the sketch envelope: magic, version, method
	key.Raw([]byte("IPSK"))
	key.Byte(1)
	key.Byte(byte(ipsketch.MethodJL))
	key.U64(1 << 61) // M
	key.U64(7)       // seed
	key.U64(testKeySpace)
	key.F64s(nil)
	var w wire.Writer // the table bundle, with no value columns
	w.Raw([]byte("IPST"))
	w.Byte(1)
	w.Str32("t")
	w.U64(testKeySpace)
	w.U32(uint32(len(key.Bytes())))
	w.Raw(key.Bytes())
	w.U32(0)
	if status, msg := send(t, "PUT", hs.URL+"/tables/t", "application/octet-stream", w.Bytes()); status != http.StatusBadRequest {
		t.Errorf("PUT of a JL header of 2^61 rows: %d %q, want 400", status, msg)
	}
	if n := srv.Catalog().Len(); n != 0 {
		t.Fatalf("the bundle cataloged %d tables", n)
	}
}
