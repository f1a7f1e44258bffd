package main

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	ipsketch "repro"
	"repro/service"
)

// The daemon configuration every workload runs against. It is pinned:
// a result is comparable with another only under the same flags.
// Flush policy is interval, so fsync stays off the request path and the
// write latencies are the daemon's, not the sandbox disk's.
var (
	sketchConfig = ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 400, Seed: 7, Dart: true}
	pinnedFlags  = []string{"-method", "WMH", "-storage", "400", "-seed", "7", "-dart", "-wal-fsync", "interval"}
	lshParams    = ipsketch.LSHParams{Bands: 16, Rows: 2}
	lshFlags     = []string{"-lsh-bands", "16", "-lsh-rows", "2"}
)

const (
	lshProbes = 4
	topK      = 10
	queryCol  = "v"
	rankBy    = ipsketch.RankByJoinSize
	keyDomain = 1 << 22

	// The overlap ladder: member m of M shares rhoMin + rhoSpan·m/(M−1) of
	// the query's keys, so Jaccard runs over [0.01, 0.52] — across the
	// banding S-curve, which keeps recall below its ceiling.
	rhoMin, rhoSpan = 0.02, 0.68
)

// spec describes one workload. The corpus is a set of planted families:
// a query table plus members that share a rising share of its keys.
type spec struct {
	Name                    string
	Families, Members, Rows int
	Cols                    []string // value columns; queries rank on the first
	Raw                     bool     // tables and queries travel as raw JSON, sketched by the daemon
	LSH                     bool     // daemon keeps the banded view; queries use mode=lsh
	Mixed                   bool     // one writer beside one reader; half the corpus stays in the WAL tail
}

// The workloads, and what each is for (BENCHMARK.json carries the same
// reasons for the driver; bench/README.md has the long form).
var workloads = []spec{
	// Raw-JSON queries and PUTs over a corpus that fits every cache: JSON
	// decode and server-side sketching dominate, the scan does not.
	{Name: "search_raw", Families: 16, Members: 16, Rows: 2000, Cols: []string{"v"}, Raw: true},
	// Pre-sketched queries and bundle PUTs over a corpus five times the L2:
	// the columnar scan and the per-Put shard rebuild dominate.
	{Name: "search_sketch", Families: 40, Members: 25, Rows: 1000, Cols: []string{"v", "w"}},
	// The same bytes as search_sketch, answered with mode=lsh probes=4: an
	// A/B of band probe plus rescoring against the full scan.
	{Name: "search_lsh", Families: 40, Members: 25, Rows: 1000, Cols: []string{"v", "w"}, LSH: true},
	// One writer (PUT new, merge, DELETE) beside one reader, and recovery
	// from a long WAL tail: publish cost and the shard write lock.
	{Name: "ingest_mixed", Families: 40, Members: 25, Rows: 1000, Cols: []string{"v", "w"}, Mixed: true},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// scaled shrinks the corpus for smoke runs; the shape of a family stays.
func (s spec) scaled(scale float64) spec {
	s.Families = max(1, int(math.Round(float64(s.Families)*scale)))
	return s
}

func (s spec) daemonFlags() []string {
	f := append([]string(nil), pinnedFlags...)
	if s.LSH {
		f = append(f, lshFlags...)
	}
	return f
}

// rawTable is a generated table before it becomes a request body.
type rawTable struct {
	name string
	keys []uint64
	cols map[string][]float64
}

func (t rawTable) payload() service.TablePayload {
	return service.TablePayload{Keys: t.keys, Columns: t.cols}
}

func (t rawTable) table() (*ipsketch.Table, error) {
	return ipsketch.NewTable(t.name, t.keys, t.cols)
}

// family is one planted group: the table its members are planted
// against, and the corpus indexes of the members, in ladder order.
type family struct {
	query rawTable
	first int // index of member 0 in corpus.tables
}

// query is one table the workload searches with. Each family is asked
// about queryVariants times: with its planted table whole, and with
// random nine-tenths of its rows. A variant keeps the ladder (it shares
// about 0.9·rho of its keys with each member) but has its own key set and
// so its own sketch, which multiplies the hits that recall and the
// estimation error are averaged over without ingesting another table.
type query struct {
	table  rawTable
	family int
}

const (
	queryVariants = 5
	variantKeep   = 0.9
)

// corpus is everything generated from a seed. The daemon never sees it,
// only the request bodies made from it.
type corpus struct {
	tables   []rawTable
	families []family
	queries  []query
}

// RNG streams: the corpus, the query variants and the write sequence
// draw from independent generators, so changing the query panel or the
// op mix cannot change a table.
const (
	streamCorpus  = 1
	streamOps     = 2
	streamQueries = 3
)

func generate(s spec, seed uint64) *corpus {
	rng := rand.New(rand.NewPCG(seed, streamCorpus))
	c := &corpus{}
	for f := 0; f < s.Families; f++ {
		used := make(map[uint64]struct{}, s.Rows*(s.Members+1))
		fresh := func() uint64 { return freshKey(rng, used) }
		q := rawTable{name: fmt.Sprintf("q%03d", f), keys: make([]uint64, s.Rows), cols: map[string][]float64{queryCol: make([]float64, s.Rows)}}
		for i := range q.keys {
			q.keys[i] = fresh()
			q.cols[queryCol][i] = rng.NormFloat64()
		}
		c.families = append(c.families, family{query: q, first: len(c.tables)})
		for m := 0; m < s.Members; m++ {
			rho := rhoMin + rhoSpan
			if s.Members > 1 {
				rho = rhoMin + rhoSpan*float64(m)/float64(s.Members-1)
			}
			shared := int(math.Round(rho * float64(s.Rows)))
			t := rawTable{name: fmt.Sprintf("f%03d_m%03d", f, m), keys: make([]uint64, s.Rows), cols: map[string][]float64{}}
			for _, col := range s.Cols {
				t.cols[col] = make([]float64, s.Rows)
			}
			for i := range t.keys {
				if i < shared {
					t.keys[i] = q.keys[i]
				} else {
					t.keys[i] = fresh()
				}
				for ci, col := range s.Cols {
					v := rng.NormFloat64()
					if ci == 0 && i < shared {
						v = 0.7*q.cols[queryCol][i] + 0.3*v
					}
					t.cols[col][i] = v
				}
			}
			c.tables = append(c.tables, t)
		}
	}
	qrng := rand.New(rand.NewPCG(seed, streamQueries))
	for f, fam := range c.families {
		c.queries = append(c.queries, query{table: fam.query, family: f})
		keep := int(math.Round(variantKeep * float64(s.Rows)))
		for v := 1; v < queryVariants; v++ {
			rows := qrng.Perm(s.Rows)[:keep]
			q := rawTable{name: fmt.Sprintf("q%03d_%d", f, v), keys: make([]uint64, keep), cols: map[string][]float64{queryCol: make([]float64, keep)}}
			for i, r := range rows {
				q.keys[i], q.cols[queryCol][i] = fam.query.keys[r], fam.query.cols[queryCol][r]
			}
			c.queries = append(c.queries, query{table: q, family: f})
		}
	}
	return c
}

// freshKey draws a key of the domain that is not in used, and adds it.
func freshKey(rng *rand.Rand, used map[uint64]struct{}) uint64 {
	for {
		k := rng.Uint64N(keyDomain)
		if _, dup := used[k]; !dup {
			used[k] = struct{}{}
			return k
		}
	}
}

// looseTable is an unplanted table: the writer of ingest_mixed adds these.
func looseTable(rng *rand.Rand, name string, s spec) rawTable {
	t := rawTable{name: name, keys: make([]uint64, s.Rows), cols: map[string][]float64{}}
	used := make(map[uint64]struct{}, s.Rows)
	for i := range t.keys {
		t.keys[i] = freshKey(rng, used)
	}
	for _, col := range s.Cols {
		vs := make([]float64, s.Rows)
		for i := range vs {
			vs[i] = rng.NormFloat64()
		}
		t.cols[col] = vs
	}
	return t
}

type opKind uint8

const (
	opSearch opKind = iota
	opPut
	opMerge
	opDelete
)

func (k opKind) String() string {
	return [...]string{"search", "put", "merge", "delete"}[k]
}

// request is one pre-encoded HTTP/1.1 request: the measured loop writes
// wire to the socket and does nothing else on the clock.
type request struct {
	kind  opKind
	name  string // target table of a write
	query int    // index of a search's query in corpus.queries
	wire  []byte
	body  int // offset of the body in wire
}

func (r request) payload() []byte { return r.wire[r.body:] }

func newRequest(kind opKind, method, path, ctype, idemKey string, body []byte) request {
	head := method + " " + path + " HTTP/1.1\r\nHost: sketchd\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n"
	if ctype != "" {
		head += "Content-Type: " + ctype + "\r\n"
	}
	if idemKey != "" {
		head += service.HeaderIdempotencyKey + ": " + idemKey + "\r\n"
	}
	head += "\r\n"
	wire := make([]byte, 0, len(head)+len(body))
	wire = append(append(wire, head...), body...)
	return request{kind: kind, wire: wire, body: len(head)}
}

func rawPut(t rawTable) (request, error) {
	body, err := json.Marshal(t.payload())
	if err != nil {
		return request{}, err
	}
	r := newRequest(opPut, "PUT", "/tables/"+t.name, "application/json", "", body)
	r.name = t.name
	return r, nil
}

func bundlePut(name string, bundle []byte) request {
	r := newRequest(opPut, "PUT", "/tables/"+name, "application/octet-stream", "", bundle)
	r.name = name
	return r
}

// searchRequest encodes one query. It also returns the query table in
// the form it travels in, without the search parameters around it, so
// that two workloads can be shown to ask with the same bytes.
func searchRequest(s spec, index int, q rawTable, qBundle []byte) (request, []byte, error) {
	k := topK
	req := service.SearchRequest{Column: queryCol, RankBy: service.RankByName(rankBy), K: &k}
	query := qBundle
	if s.Raw {
		p := q.payload()
		req.Table = &p
		var err error
		if query, err = json.Marshal(p); err != nil {
			return request{}, nil, err
		}
	} else {
		req.SketchB64 = base64.StdEncoding.EncodeToString(qBundle)
	}
	if s.LSH {
		req.Mode, req.Probes = service.SearchModeLSH, lshProbes
	}
	body, err := json.Marshal(req)
	if err != nil {
		return request{}, nil, err
	}
	r := newRequest(opSearch, "POST", "/search", "application/json", "", body)
	r.query = index
	return r, query, nil
}

// hashOf is the SHA-256 of the request bodies in order: two runs sent the
// daemon the same bytes exactly when their hashes match.
func hashOf(reqs []request) string {
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		bodies[i] = r.payload()
	}
	return hashBytes(bodies)
}

func hashBytes(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
