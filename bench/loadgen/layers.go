package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	ipsketch "repro"
	"repro/internal/catalog"
	"repro/internal/lsh"
	"repro/internal/wal"
	"repro/service"
	"repro/service/client"
)

// The per-layer metrics, in report order: layers are this repository's
// modules. A timing is the median over the calls of the in-process
// replay unless its name says otherwise; the unit is the name's suffix.
var perLayer = []struct{ name, unit string }{
	{"ipsketch.build_table_us", "us"},
	{"ipsketch.sketch_query_ms", "ms"},
	{"ipsketch.sketch_table_ms", "ms"},
	{"ipsketch.sketch_vec_dart_us", "us"},
	{"ipsketch.sketch_vec_record_ms", "ms"},
	{"ipsketch.estimate_ns", "ns"},
	{"serialize.marshal_table_us", "us"},
	{"serialize.unmarshal_table_us", "us"},
	{"serialize.bundle_bytes", "bytes"},
	{"serialize.encode_index_s", "s"},
	{"serialize.decode_index_s", "s"},
	{"index.add_us", "us"},
	{"index.build_columnar_ms", "ms"},
	{"index.scan_ms", "ms"},
	{"index.scan_cols_per_s", "1/s"},
	{"index.scan_decoded_ms", "ms"},
	{"index.columnar_ratio", "ratio"},
	{"lsh.build_ms", "ms"},
	{"lsh.candidates_us", "us"},
	{"lsh.search_ms", "ms"},
	{"lsh.cand_frac", "ratio"},
	{"lsh.recall_vs_full", "ratio"},
	{"catalog.put_ms", "ms"},
	{"catalog.put_p95_ms", "ms"},
	{"catalog.merge_ms", "ms"},
	{"catalog.delete_ms", "ms"},
	{"catalog.search_ms", "ms"},
	{"catalog.fanout_ms", "ms"},
	{"catalog.save_s", "s"},
	{"catalog.load_s", "s"},
	{"catalog.bulk_tables_per_s", "1/s"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_op", "bytes"},
	{"wal.replay_s", "s"},
	{"wal.replay_records", "count"},
	{"service.json_decode_search_ms", "ms"},
	{"service.json_decode_put_ms", "ms"},
	{"service.json_encode_resp_us", "us"},
	{"service.search_handler_ms", "ms"},
	{"service.put_handler_ms", "ms"},
	{"service.search_other_ms", "ms"},
	{"service.put_other_ms", "ms"},
	{"service.load_snapshot_s", "s"},
	{"service.replay_wal_s", "s"},
	{"client.search_overhead_ms", "ms"},
	{"client.put_overhead_ms", "ms"},
	{"http.search_transport_ms", "ms"},
	{"http.put_transport_ms", "ms"},
	{"sketchd.boot_empty_s", "s"},
	{"sketchd.cpu_s_per_kop", "s"},
	{"sketchd.heap_mb_ready", "MB"},
	{"sketchd.scan_candidates_per_search", "count"},
	{"sketchd.wal_fsyncs_per_write", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// Sample counts of the replay. They are sized so the whole traced run
// stays near the length of an untraced one.
const (
	replayOps     = 64  // operations taken through the decomposed read and write paths
	replayPuts    = 200 // extra catalog Puts, so put_p95 has ten samples beyond it
	replaySlow    = 6   // calls of anything that takes tens of milliseconds
	replayOneShot = 2   // calls of anything that takes a large share of a second
)

// perSecond scales a duration in seconds to the unit a metric name ends in.
func perSecond(name string) float64 {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return 1e9
	case strings.HasSuffix(name, "_us"):
		return 1e6
	case strings.HasSuffix(name, "_ms"):
		return 1e3
	}
	return 1
}

// layerRun times calls into the layers' public functions. Every call is
// a span; the spans of one replayed operation hang off one root. The
// first error sticks: later calls are skipped, and replayLayers reports
// it once at the end.
type layerRun struct {
	tr      *tracer
	wd      *workloadData
	dir     string               // scratch: the replay's WAL and snapshot
	samples map[string][]float64 // seconds per call, by metric name
	values  map[string]float64   // metrics that are not medians of samples
	op      int
	err     error

	cat      *catalog.Catalog
	catOpts  catalog.Options
	log      *wal.Log
	byName   []*ipsketch.TableSketch // the corpus in the catalog's scan order
	ix       *ipsketch.SketchIndex   // one index over the whole corpus, as a snapshot holds it
	snapshot string
}

// call times f as one sample of the metric name, under parent.
func (lr *layerRun) call(name string, parent int, f func() error) {
	if lr.err != nil {
		return
	}
	start := time.Now()
	err := f()
	took := time.Since(start)
	if err != nil {
		lr.err = fmt.Errorf("replay %s: %w", name, err)
		return
	}
	lr.samples[name] = append(lr.samples[name], took.Seconds())
	lr.tr.add(name, parent, lr.op, start, took)
}

// check records an error from the code between the timed calls.
func (lr *layerRun) check(err error) {
	if lr.err == nil {
		lr.err = err
	}
}

// root opens the span of one replayed operation and returns its ID and
// the function that closes it.
func (lr *layerRun) root(name string) (int, func()) {
	lr.op++
	id := lr.tr.reserve(name, lr.op, time.Now())
	return id, func() { lr.tr.finish(id, time.Now()) }
}

// repeat takes n samples of name, each an operation of its own.
func (lr *layerRun) repeat(name string, n int, f func(i int) error) {
	for i := 0; i < n; i++ {
		lr.op++
		lr.call(name, 0, func() error { return f(i) })
	}
}

// p50 is the median sample of a metric, in the metric's unit.
func (lr *layerRun) p50(name string) float64 {
	return median(lr.samples[name]) * perSecond(name)
}

func (lr *layerRun) sum(name string) float64 {
	s := 0.0
	for _, x := range lr.samples[name] {
		s += x
	}
	return s
}

// sk and qsk index the corpus and the queries round-robin.
func (lr *layerRun) sk(i int) *ipsketch.TableSketch  { return lr.wd.sks[i%len(lr.wd.sks)] }
func (lr *layerRun) qsk(i int) *ipsketch.TableSketch { return lr.wd.qsks[i%len(lr.wd.qsks)] }

// replayLayers runs the workload's operations in this process, one layer
// call at a time, and fills samples and values. No daemon is running
// while it does.
func replayLayers(o options, wd *workloadData, tr *tracer) (*layerRun, error) {
	dir, err := cleanup.tempDir(o.workDir, "replay-")
	if err != nil {
		return nil, err
	}
	defer cleanup.removeDir(dir)
	lr := &layerRun{
		tr: tr, wd: wd, dir: dir, samples: map[string][]float64{}, values: map[string]float64{},
		catOpts: catalog.Options{Strict: true}, snapshot: filepath.Join(dir, "catalog.ipsx"),
	}
	if wd.spec.LSH {
		lr.catOpts.LSH = &lshParams
	}
	if lr.log, err = wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncInterval}); err != nil {
		return nil, err
	}
	defer func() { lr.log.Close() }()

	for _, layer := range []func(){
		lr.bulkIngest, lr.readPath, lr.writePath, lr.otherForms,
		lr.ipsketchLayer, lr.indexLayer, lr.lshLayer, lr.catalogLayer, lr.serializeLayer, lr.walLayer, lr.serviceLayer,
	} {
		if layer(); lr.err != nil {
			return nil, lr.err
		}
	}
	return lr, nil
}

// bulkIngest fills the catalog, which is also what Load and WAL replay do.
func (lr *layerRun) bulkIngest() {
	lr.cat = catalog.New(lr.catOpts)
	start := time.Now()
	for _, sk := range lr.wd.sks {
		lr.check(lr.cat.Put(sk))
	}
	lr.values["catalog.bulk_tables_per_s"] = float64(len(lr.wd.sks)) / time.Since(start).Seconds()
	for _, name := range lr.cat.Tables() {
		sk, _ := lr.cat.Get(name)
		lr.byName = append(lr.byName, sk)
	}
}

// readPath is what handleSearch does, one call per layer.
func (lr *layerRun) readPath() {
	wd := lr.wd
	for i := 0; i < replayOps; i++ {
		req := wd.reads[i%len(wd.reads)]
		root, done := lr.root("replay.search")
		var sr service.SearchRequest
		lr.call("service.json_decode_search_ms", root, func() error {
			return json.NewDecoder(bytes.NewReader(req.payload())).Decode(&sr)
		})
		q := lr.resolve(root, "ipsketch.sketch_query_ms", "", sr.Table, sr.SketchB64)
		var hits []ipsketch.SearchResult
		lr.call("catalog.search_ms", root, func() (err error) {
			if wd.spec.LSH {
				hits, _, err = lr.cat.SearchTopKLSHStats(q, queryCol, rankBy, 0, topK, lshProbes)
			} else {
				hits, _, err = lr.cat.SearchTopKStats(q, queryCol, rankBy, 0, topK)
			}
			return err
		})
		lr.call("service.json_encode_resp_us", root, func() error {
			resp := service.SearchResponse{Results: make([]service.SearchHit, len(hits))}
			for j, h := range hits {
				resp.Results[j] = service.SearchHit{Table: h.Table, Column: h.Column, Score: service.Float(h.Score), Stats: statsJSON(h.Stats)}
			}
			return json.NewEncoder(new(bytes.Buffer)).Encode(resp)
		})
		done()
	}
}

// writePath is what handlePutTable does, with the WAL append the
// catalog's mutation hook makes.
func (lr *layerRun) writePath() {
	wd := lr.wd
	puts := 0
	for i := 0; puts < replayOps && i < len(wd.writes) && lr.err == nil; i++ {
		req := wd.writes[i]
		if req.kind != opPut {
			continue
		}
		puts++
		root, done := lr.root("replay.put")
		var sk *ipsketch.TableSketch
		if wd.spec.Raw || wd.spec.Mixed {
			var p service.TablePayload
			lr.call("service.json_decode_put_ms", root, func() error {
				return json.NewDecoder(bytes.NewReader(req.payload())).Decode(&p)
			})
			sk = lr.resolve(root, "ipsketch.sketch_table_ms", req.name, &p, "")
		} else {
			sk = lr.resolve(root, "", req.name, nil, base64.StdEncoding.EncodeToString(req.payload()))
		}
		var blob []byte
		lr.call("serialize.marshal_table_us", root, func() (err error) {
			blob, err = sk.MarshalBinary()
			return err
		})
		lr.call("wal.append_us", root, func() error {
			_, err := lr.log.Append(wal.OpPut, sk.Name, "", blob)
			return err
		})
		lr.call("catalog.put_ms", root, func() error { return lr.cat.Put(sk) })
		done()
	}
	lr.check(lr.log.Sync())
	walBytes, err := treeBytes(lr.log.Dir())
	lr.check(err)
	lr.values["wal.bytes_per_op"] = float64(walBytes) / float64(lr.log.LSN())
}

// resolve turns a request's table into a sketch the way the service
// does: a raw payload is built and sketched (a sample of sketchMetric), a
// bundle is unmarshalled.
func (lr *layerRun) resolve(parent int, sketchMetric, name string, p *service.TablePayload, b64 string) (sk *ipsketch.TableSketch) {
	if p == nil {
		lr.call("serialize.unmarshal_table_us", parent, func() error {
			blob, err := base64.StdEncoding.DecodeString(b64)
			if err != nil {
				return err
			}
			sk, err = ipsketch.UnmarshalTableSketch(blob)
			return err
		})
		return sk
	}
	var tab *ipsketch.Table
	lr.call("ipsketch.build_table_us", parent, func() (err error) {
		tab, err = ipsketch.NewTable(name, p.Keys, p.Columns)
		return err
	})
	lr.call(sketchMetric, parent, func() (err error) {
		sk, err = lr.wd.sketcher.SketchTableChunked(tab)
		return err
	})
	return sk
}

// otherForms measures the table forms this workload's requests do not
// use — raw for the bundle workloads, bundles for search_raw — over the
// same corpus, so every layer reports on every workload.
func (lr *layerRun) otherForms() {
	wd := lr.wd
	missing := func(name string) bool { return len(lr.samples[name]) == 0 }
	raws := func(i int) rawTable { return wd.corp.tables[i%len(wd.corp.tables)] }
	if missing("service.json_decode_put_ms") {
		for i := 0; i < replayOps/2; i++ {
			req, err := rawPut(raws(i))
			lr.check(err)
			lr.op++
			lr.call("service.json_decode_put_ms", 0, func() error {
				var p service.TablePayload
				return json.NewDecoder(bytes.NewReader(req.payload())).Decode(&p)
			})
		}
	}
	if missing("ipsketch.sketch_table_ms") {
		for i := 0; i < replayOps/2; i++ {
			p := raws(i).payload()
			lr.op++
			lr.resolve(0, "ipsketch.sketch_table_ms", raws(i).name, &p, "")
		}
	}
	if missing("ipsketch.sketch_query_ms") {
		for i := 0; i < replayOps/2; i++ {
			q := wd.corp.queries[i%len(wd.corp.queries)].table
			p := q.payload()
			lr.op++
			lr.resolve(0, "ipsketch.sketch_query_ms", q.name, &p, "")
		}
	}
	var sizes []float64
	for i := 0; i < replayOps; i++ {
		blob, err := lr.sk(i).MarshalBinary()
		lr.check(err)
		sizes = append(sizes, float64(len(blob)))
		if len(lr.samples["serialize.unmarshal_table_us"]) < replayOps {
			lr.op++
			lr.resolve(0, "", "", nil, base64.StdEncoding.EncodeToString(blob))
		}
	}
	lr.values["serialize.bundle_bytes"] = median(sizes)
}

// ipsketchLayer: one vector under both constructions, and one estimate.
func (lr *layerRun) ipsketchLayer() {
	wd := lr.wd
	recordCfg := sketchConfig
	recordCfg.Dart = false
	for _, c := range []struct {
		name string
		cfg  ipsketch.Config
		n    int
	}{{"ipsketch.sketch_vec_dart_us", sketchConfig, replayOps}, {"ipsketch.sketch_vec_record_ms", recordCfg, replaySlow}} {
		sketcher, err := ipsketch.NewSketcher(c.cfg)
		lr.check(err)
		lr.repeat(c.name, c.n, func(i int) error {
			v, err := wd.tabs[i%len(wd.tabs)].ValueVector(lr.sk(0).KeySpace(), queryCol)
			if err != nil {
				return err
			}
			_, err = sketcher.Sketch(v)
			return err
		})
	}
	lr.repeat("ipsketch.estimate_ns", 2000, func(i int) error {
		a, err := lr.qsk(i).ColumnSketch(queryCol)
		if err != nil {
			return err
		}
		b, err := lr.sk(i).ColumnSketch(queryCol)
		if err != nil {
			return err
		}
		_, err = ipsketch.Estimate(a, b)
		return err
	})
}

// indexLayer: the columnar scan and the decoded scan it replaced.
func (lr *layerRun) indexLayer() {
	lr.ix = ipsketch.NewStrictSketchIndex()
	decoded := ipsketch.NewStrictSketchIndex()
	lr.repeat("index.add_us", len(lr.byName), func(i int) error { return lr.ix.Add(lr.byName[i]) })
	for _, sk := range lr.byName {
		lr.check(decoded.Add(sk))
	}
	lr.repeat("index.build_columnar_ms", replaySlow, func(int) error { lr.ix.BuildColumnar(); return nil })
	var scan ipsketch.ScanStats
	lr.repeat("index.scan_ms", replayOps, func(i int) error {
		_, st, err := lr.ix.SearchTopKStats(lr.qsk(i), queryCol, rankBy, 0, topK)
		scan.Add(st)
		return err
	})
	lr.values["index.scan_cols_per_s"] = float64(scan.Candidates) / lr.sum("index.scan_ms")
	lr.values["index.columnar_ratio"] = float64(scan.Columnar) / float64(scan.Candidates)
	lr.repeat("index.scan_decoded_ms", 2*replaySlow, func(i int) error {
		_, _, err := decoded.SearchTopKStats(lr.qsk(i), queryCol, rankBy, 0, topK)
		return err
	})
}

// lshLayer: the banded view over the same index, and the candidate stage
// alone.
func (lr *layerRun) lshLayer() {
	lr.repeat("lsh.build_ms", replaySlow, func(int) error { _, err := lr.ix.BuildLSH(lshParams); return err })
	var banded ipsketch.ScanStats
	lr.repeat("lsh.search_ms", replayOps, func(i int) error {
		_, st, err := lr.ix.SearchTopKLSHStats(lr.qsk(i), queryCol, rankBy, 0, topK, lshProbes)
		banded.Add(st)
		return err
	})
	overlap, compared := 0.0, min(replayOps, len(lr.wd.qsks))
	for q := 0; q < compared; q++ {
		got, _, err := lr.ix.SearchTopKLSHStats(lr.qsk(q), queryCol, rankBy, 0, topK, lshProbes)
		lr.check(err)
		full, _, err := lr.ix.SearchTopKStats(lr.qsk(q), queryCol, rankBy, 0, topK)
		lr.check(err)
		overlap += overlapShare(got, full)
	}
	lr.values["lsh.cand_frac"] = float64(banded.LSHCandidates) / float64(replayOps*len(lr.byName))
	lr.values["lsh.recall_vs_full"] = overlap / float64(compared)

	bands, err := lsh.New(lsh.Params{Bands: lshParams.Bands, Rows: lshParams.Rows})
	lr.check(err)
	sigLen := lshParams.SignatureLen()
	for i, sk := range lr.byName {
		sig, err := sk.KeySketch().LSHSignature()
		lr.check(err)
		if lr.err != nil {
			return
		}
		lr.check(bands.Insert(i, sig[:sigLen]))
	}
	querier := bands.NewQuerier()
	lr.repeat("lsh.candidates_us", 4*replayOps, func(i int) error {
		sig, err := lr.qsk(i).KeySketch().LSHSignature()
		if err != nil {
			return err
		}
		_, err = querier.Candidates(sig[:sigLen], lshProbes)
		return err
	})
}

// catalogLayer: the mutations at full size, the fan-out, save and load.
func (lr *layerRun) catalogLayer() {
	scanLayer := "index.scan_ms"
	if lr.wd.spec.LSH {
		scanLayer = "lsh.search_ms"
	}
	lr.values["catalog.fanout_ms"] = lr.p50("catalog.search_ms") - lr.p50(scanLayer)

	lr.repeat("catalog.put_ms", replayPuts, func(i int) error { return lr.cat.Put(lr.sk(i)) })
	p95, err := percentile(lr.samples["catalog.put_ms"], 95)
	lr.check(err)
	lr.values["catalog.put_p95_ms"] = p95 * 1e3
	lr.repeat("catalog.merge_ms", replayOps/2, func(i int) error {
		_, err := lr.cat.Merge(lr.sk(i))
		return err
	})
	for i := 0; i < replayOps/2; i++ {
		lr.op++
		lr.call("catalog.delete_ms", 0, func() error {
			_, err := lr.cat.Delete(lr.sk(i).Name)
			return err
		})
		lr.check(lr.cat.Put(lr.sk(i)))
	}
	lr.repeat("catalog.save_s", replayOneShot, func(int) error { return lr.cat.Save(lr.snapshot) })
	lr.repeat("catalog.load_s", 1, func(int) error {
		_, err := catalog.New(lr.catOpts).Load(lr.snapshot)
		return err
	})
}

// serializeLayer: the snapshot's codec, without the file or the catalog.
func (lr *layerRun) serializeLayer() {
	var encoded bytes.Buffer
	lr.repeat("serialize.encode_index_s", replayOneShot, func(int) error {
		encoded.Reset()
		return ipsketch.EncodeIndex(&encoded, lr.ix)
	})
	lr.repeat("serialize.decode_index_s", replayOneShot, func(int) error {
		_, err := ipsketch.DecodeIndex(bytes.NewReader(encoded.Bytes()))
		return err
	})
}

// walLayer: reading the log back, apart from applying it.
func (lr *layerRun) walLayer() {
	opts := wal.Options{Dir: lr.log.Dir(), Sync: wal.SyncInterval}
	lr.check(lr.log.Close())
	reopened, err := wal.Open(opts)
	if lr.check(err); lr.err != nil {
		return
	}
	lr.log = reopened
	records := 0
	lr.repeat("wal.replay_s", 1, func(int) (err error) {
		records, err = lr.log.Replay(func(wal.Record) error { return nil })
		return err
	})
	lr.values["wal.replay_records"] = float64(records)
}

// serviceLayer: the daemon's boot sequence and its handlers, in process,
// over the snapshot and the log the earlier layers left.
func (lr *layerRun) serviceLayer() {
	wd := lr.wd
	cfg := service.Config{Sketch: sketchConfig, SnapshotPath: lr.snapshot, WAL: lr.log}
	if wd.spec.LSH {
		cfg.LSHBands, cfg.LSHRows = lshParams.Bands, lshParams.Rows
	}
	srv, err := service.New(cfg)
	if lr.check(err); lr.err != nil {
		return
	}
	lr.repeat("service.load_snapshot_s", 1, func(int) error { _, err := srv.LoadSnapshot(); return err })
	lr.repeat("service.replay_wal_s", 1, func(int) error { _, err := srv.ReplayWAL(); return err })
	serve := func(name string, reqs []request, kind opKind) {
		done := 0
		for i := 0; done < replayOps && i < 4*len(reqs); i++ {
			req := reqs[i%len(reqs)]
			if req.kind != kind {
				continue
			}
			done++
			hr, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(req.wire)))
			lr.check(err)
			rec := httptest.NewRecorder()
			lr.op++
			lr.call(name, 0, func() error {
				srv.Handler().ServeHTTP(rec, hr)
				if rec.Code != 200 {
					return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
				}
				return nil
			})
		}
	}
	serve("service.search_handler_ms", wd.reads, opSearch)
	serve("service.put_handler_ms", wd.writes, opPut)
}

func statsJSON(st ipsketch.JoinStats) service.JoinStatsJSON {
	return service.JoinStatsJSON{
		Size: service.Float(st.Size), SumA: service.Float(st.SumA), SumB: service.Float(st.SumB),
		MeanA: service.Float(st.MeanA), MeanB: service.Float(st.MeanB), VarA: service.Float(st.VarA), VarB: service.Float(st.VarB),
		InnerProduct: service.Float(st.InnerProduct), Covariance: service.Float(st.Covariance), Correlation: service.Float(st.Correlation),
	}
}

// overlapShare is |got ∩ want| / |want| over (table, column).
func overlapShare(got, want []ipsketch.SearchResult) float64 {
	if len(want) == 0 {
		return 1
	}
	in := map[colKey]bool{}
	for _, w := range want {
		in[colKey{w.Table, w.Column}] = true
	}
	hit := 0
	for _, g := range got {
		if in[colKey{g.Table, g.Column}] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// probe is what the traced pass reads from the live daemon after its
// measured phases: the daemon's own counters, and the typed client's cost
// over the raw wire.
type probe struct {
	candidatesPerSearch float64
	fsyncsPerWrite      float64
	clientSearchMs      float64 // typed-client p50 minus wire p50 of the same requests
	clientPutMs         float64
}

func probeDaemon(d *daemon, c *conn, wd *workloadData) (*probe, error) {
	p := &probe{}
	st, err := statsz(c)
	if err != nil {
		return nil, err
	}
	if st.Scan != nil && st.Searches > 0 {
		p.candidatesPerSearch = float64(st.Scan.Candidates) / float64(st.Searches)
	}
	r, err := c.do(get("/metrics"))
	if err != nil || r.status != 200 {
		return nil, fmt.Errorf("/metrics: status %d, error %v", r.status, err)
	}
	fsyncs := 0.0
	for _, line := range strings.Split(string(r.body), "\n") {
		if rest, ok := strings.CutPrefix(line, "sketchd_wal_fsync_seconds_count "); ok {
			if fsyncs, err = strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil {
				return nil, err
			}
		}
	}
	if writes := st.Puts + st.Merges + st.Deletes; writes > 0 {
		p.fsyncsPerWrite = fsyncs / float64(writes)
	}

	cl, err := client.New("http://" + d.addr)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var typedS, wireS, typedP, wireP []float64
	for i := 0; i < replayOps/2; i++ {
		read := wd.reads[i%len(wd.reads)]
		var sr service.SearchRequest
		if err := json.Unmarshal(read.payload(), &sr); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := cl.SearchFull(ctx, sr); err != nil {
			return nil, err
		}
		typedS = append(typedS, time.Since(start).Seconds()*1e3)
		if r, err = c.do(read.wire); err != nil || r.status != 200 {
			return nil, fmt.Errorf("probe search: status %d, error %v", r.status, err)
		}
		wireS = append(wireS, r.took.Seconds()*1e3)

		put := wd.ingest[i%len(wd.ingest)]
		start = time.Now()
		if wd.spec.Raw {
			_, err = cl.PutTable(ctx, put.name, wd.corp.tables[i%len(wd.ingest)].payload())
		} else {
			_, err = cl.PutSketch(ctx, put.name, wd.sks[i%len(wd.ingest)])
		}
		if err != nil {
			return nil, err
		}
		typedP = append(typedP, time.Since(start).Seconds()*1e3)
		if r, err = c.do(put.wire); err != nil || r.status != 200 {
			return nil, fmt.Errorf("probe put: status %d, error %v", r.status, err)
		}
		wireP = append(wireP, r.took.Seconds()*1e3)
	}
	p.clientSearchMs = median(typedS) - median(wireS)
	p.clientPutMs = median(typedP) - median(wireP)
	return p, nil
}

// tracedRun is the run behind -trace: one untraced pass for the
// baseline, the same pass again with a root span per request, then the
// in-process replay. It fills res.Metrics with every per-layer metric.
func tracedRun(o options, wd *workloadData, pristine string, ver verifyResult, res *runResult, tally func(*pass)) error {
	plain, err := runPass(o, wd, pristine, ver.ref, nil)
	if err != nil {
		return err
	}
	tally(plain)
	tr := newTracer()
	traced, err := runPass(o, wd, pristine, ver.ref, tr)
	if err != nil {
		return err
	}
	tally(traced)

	empty, _, stop, err := incarnate(o, wd.spec, "", "empty-")
	if err != nil {
		return err
	}
	stop()

	lr, err := replayLayers(o, wd, tr)
	if err != nil {
		return err
	}
	v := lr.values
	// The write side of the identity is the PUT path, so its total is the
	// median over the PUTs alone where the writer also merges and deletes.
	var putMs []float64
	for i, k := range plain.writes.kinds {
		if k == opPut {
			putMs = append(putMs, plain.writes.ms[i])
		}
	}
	searchP50, writeP50 := median(plain.reads.ms), median(putMs)
	v["http.search_transport_ms"] = searchP50 - lr.p50("service.search_handler_ms")
	v["http.put_transport_ms"] = writeP50 - lr.p50("service.put_handler_ms")
	v["client.search_overhead_ms"] = traced.probe.clientSearchMs
	v["client.put_overhead_ms"] = traced.probe.clientPutMs
	v["sketchd.boot_empty_s"] = empty.boot.Seconds()
	v["sketchd.cpu_s_per_kop"] = plain.cpuSeconds / float64(len(plain.reads.ms)+len(plain.writes.ms)) * 1e3
	v["sketchd.heap_mb_ready"] = traced.heapReadyMB
	v["sketchd.scan_candidates_per_search"] = traced.probe.candidatesPerSearch
	v["sketchd.wal_fsyncs_per_write"] = traced.probe.fsyncsPerWrite
	v["trace.overhead_pct"] = (median(traced.reads.ms) - searchP50) / searchP50 * 100

	// The latency identity: each side's terms sum to the end-to-end median
	// by construction, because transport and "other" are defined as what
	// the measured terms leave. They are printed so their size is known.
	ms := func(name string) float64 { return lr.p50(name) * 1e3 / perSecond(name) }
	readTerms := []string{"service.json_decode_search_ms"}
	if wd.spec.Raw {
		readTerms = append(readTerms, "ipsketch.build_table_us", "ipsketch.sketch_query_ms")
	} else {
		readTerms = append(readTerms, "serialize.unmarshal_table_us")
	}
	readTerms = append(readTerms, "catalog.search_ms", "service.json_encode_resp_us")
	var writeTerms []string
	if wd.spec.Raw || wd.spec.Mixed {
		writeTerms = []string{"service.json_decode_put_ms", "ipsketch.build_table_us", "ipsketch.sketch_table_ms"}
	} else {
		writeTerms = []string{"serialize.unmarshal_table_us"}
	}
	writeTerms = append(writeTerms, "serialize.marshal_table_us", "wal.append_us", "catalog.put_ms")
	identity := func(e2e string, total float64, transport, handler, other string, terms []string) string {
		rest := lr.p50(handler)
		line := fmt.Sprintf("%s %.4f ms = %s %.4f", e2e, total, transport, v[transport])
		for _, t := range terms {
			line += fmt.Sprintf(" + %s %.4f", t, ms(t))
			rest -= ms(t)
		}
		v[other] = rest
		return line + fmt.Sprintf(" + %s %.4f (all in ms; unattributed: transport %.0f%%, other %.0f%%)",
			other, rest, v[transport]/total*100, rest/total*100)
	}
	res.Identity = []string{
		identity("search_p50_ms", searchP50, "http.search_transport_ms", "service.search_handler_ms", "service.search_other_ms", readTerms),
		identity("write_p50_ms (PUTs)", writeP50, "http.put_transport_ms", "service.put_handler_ms", "service.put_other_ms", writeTerms),
	}

	v["trace.spans"] = float64(tr.len())
	if err := tr.write(tracePath(o, wd.spec.Name)); err != nil {
		return err
	}
	for _, m := range perLayer {
		val, ok := v[m.name]
		if !ok {
			if len(lr.samples[m.name]) == 0 {
				return fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			val = lr.p50(m.name)
		}
		res.Metrics[m.name] = metric{val, m.unit}
	}
	return nil
}
