package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/wal"
	"repro/service"
	"repro/service/client"
)

// benchServer loads a 128-table catalog behind a real HTTP listener.
func benchServer(b *testing.B) (service.TablePayload, map[string]service.TablePayload, *client.Client) {
	b.Helper()
	_, cl := newTestServer(b, service.Config{})
	query, lake := lakePayloads(b, 128)
	ctx := context.Background()
	for name, p := range lake {
		if _, err := cl.PutTable(ctx, name, p); err != nil {
			b.Fatal(err)
		}
	}
	return query, lake, cl
}

// BenchmarkServiceSearch measures end-to-end /search latency over a real
// HTTP connection: JSON query columns in, server-side sketching, sharded
// top-10 search, JSON ranking out.
func BenchmarkServiceSearch(b *testing.B) {
	query, _, cl := benchServer(b)
	ctx := context.Background()
	k := 10
	req := service.SearchRequest{Table: &query, Column: "v", RankBy: "join_size", K: &k}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Search(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServiceIngest measures end-to-end PUT /tables latency: JSON
// columns in, pooled-builder sketching, catalog publish. Each table
// ingests a key vector plus value and squared-value vectors per column.
func BenchmarkServiceIngest(b *testing.B) {
	_, lake, cl := benchServer(b)
	ctx := context.Background()
	names := make([]string, 0, len(lake))
	for name := range lake {
		names = append(names, name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := names[i%len(names)]
		if _, err := cl.PutTable(ctx, name, lake[name]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(3*b.N)/b.Elapsed().Seconds(), "vecs/s")
}

// BenchmarkServiceIngestWAL is BenchmarkServiceIngest with a write-ahead
// log under the interval fsync policy: the durability tax on the ingest
// hot path (one marshal + one buffered write(2) per mutation, fsync off
// the request path). Compare req/s against BenchmarkServiceIngest.
func BenchmarkServiceIngestWAL(b *testing.B) {
	log, err := wal.Open(wal.Options{Dir: b.TempDir(), Sync: wal.SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	srv, cl := newTestServer(b, service.Config{Sketch: testSketchCfg, KeySpace: testKeySpace, WAL: log})
	if _, err := srv.ReplayWAL(); err != nil {
		b.Fatal(err)
	}
	_, lake := lakePayloads(b, 128)
	ctx := context.Background()
	names := make([]string, 0, len(lake))
	for name := range lake {
		names = append(names, name)
	}
	for _, name := range names {
		if _, err := cl.PutTable(ctx, name, lake[name]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := names[i%len(names)]
		if _, err := cl.PutTable(ctx, name, lake[name]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(3*b.N)/b.Elapsed().Seconds(), "vecs/s")
}

// BenchmarkDecodeRequestBody times decoding a raw-columns request body,
// as the benchmark's search_raw and ingest workloads send them: a
// 2000×1 inline /search and a 1000×2 PUT, through the single-pass
// decoder (fast) and through encoding/json (stdlib).
func BenchmarkDecodeRequestBody(b *testing.B) {
	bodies := service.BenchBodies(b, 2000)
	for _, tc := range []struct {
		name         string
		body         []byte
		fast, stdlib func([]byte) error
	}{
		{"search", bodies["search_raw"],
			func(body []byte) error { _, err := service.DecodeSearchBody(body); return err },
			func(body []byte) error {
				var v service.SearchRequest
				return json.NewDecoder(bytes.NewReader(body)).Decode(&v)
			}},
		{"put", bodies["put_raw"],
			func(body []byte) error { _, err := service.DecodeTableBody(body); return err },
			func(body []byte) error {
				var v service.TablePayload
				return json.NewDecoder(bytes.NewReader(body)).Decode(&v)
			}},
	} {
		for _, path := range []struct {
			name   string
			decode func([]byte) error
		}{{"fast", tc.fast}, {"stdlib", tc.stdlib}} {
			b.Run(tc.name+"/"+path.name, func(b *testing.B) {
				b.SetBytes(int64(len(tc.body)))
				b.ReportAllocs()
				for b.Loop() {
					if err := path.decode(tc.body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
