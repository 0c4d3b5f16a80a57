package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"scanraw/internal/dbstore"
	"scanraw/internal/gen"
	"scanraw/internal/scanraw"
	storepkg "scanraw/internal/store"
)

// newDurableServerEnv stands up a server over the durable storage stack
// (file-backed blobs + manifest journal) rooted at dir, the way scanrawd
// assembles it for -data-dir. Reopening on the same dir is a warm start.
func newDurableServerEnv(t *testing.T, dir string) (*serverEnv, *storepkg.Manifest) {
	t.Helper()
	fd, err := storepkg.OpenFileDisk(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	man, err := storepkg.OpenManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	store, err := dbstore.OpenDurable(fd, man)
	if err != nil {
		t.Fatal(err)
	}
	spec := gen.CSVSpec{Rows: 256, Cols: 4, Seed: 42, MaxValue: 1000}
	raw := gen.Bytes(spec)
	fd.Preload("raw/data.csv", raw)
	table, err := store.EnsureTable("data", spec.Schema(), "raw/data.csv", storepkg.FingerprintBytes(raw))
	if err != nil {
		t.Fatal(err)
	}
	s := New(store, Config{MaxConcurrent: 4})
	if err := s.AddTable(table, scanraw.Config{
		Workers: 2, ChunkLines: 64, Policy: scanraw.Speculative, Safeguard: true,
		CacheChunks: 4, CollectStats: true,
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	cols := make([]int, spec.Cols)
	for i := range cols {
		cols[i] = i
	}
	return &serverEnv{
		srv: s, ts: ts, spec: spec,
		want: gen.SumRange(spec, cols, 0, spec.Rows),
	}, man
}

func metricsSnapshot(t *testing.T, env *serverEnv) map[string]any {
	t.Helper()
	resp, err := http.Get(env.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestServerWarmStartMetrics runs the full durable lifecycle through the
// server: query, graceful drain (checkpoint), restart on the same data
// directory, and verifies the /metrics recovery gauges report the warm
// start and the second server answers from the database.
func TestServerWarmStartMetrics(t *testing.T) {
	dir := t.TempDir()

	env, man := newDurableServerEnv(t, dir)
	status, out := postQuery(t, env, `{"sql": "`+sumSQL+`"}`)
	if status != http.StatusOK {
		t.Fatalf("cold query status = %d: %v", status, out)
	}
	if got := int64(out["rows"].([]any)[0].([]any)[0].(float64)); got != env.want {
		t.Fatalf("cold sum = %d, want %d", got, env.want)
	}
	// A cold start reports zero recovery gauges.
	m := metricsSnapshot(t, env)
	if m["store_chunks_recovered"].(float64) != 0 {
		t.Errorf("cold start reports recovered chunks: %v", m["store_chunks_recovered"])
	}
	// Graceful shutdown: drain in-flight work and checkpoint the catalog.
	if err := env.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := man.AppendsSinceCheckpoint(); n != 0 {
		t.Errorf("drain left %d journal records uncompacted", n)
	}
	if err := man.Close(); err != nil {
		t.Fatal(err)
	}

	env2, man2 := newDurableServerEnv(t, dir)
	defer man2.Close()
	m = metricsSnapshot(t, env2)
	if m["store_chunks_recovered"].(float64) == 0 {
		t.Error("warm start reports no recovered chunks")
	}
	if m["store_chunks_invalidated"].(float64) != 0 {
		t.Errorf("clean warm start invalidated chunks: %v", m["store_chunks_invalidated"])
	}
	if _, ok := m["store_recovery_ms"]; !ok {
		t.Error("store_recovery_ms gauge missing from /metrics")
	}
	status, out = postQuery(t, env2, `{"sql": "`+sumSQL+`"}`)
	if status != http.StatusOK {
		t.Fatalf("warm query status = %d: %v", status, out)
	}
	if got := int64(out["rows"].([]any)[0].([]any)[0].(float64)); got != env.want {
		t.Errorf("warm sum = %d, want %d", got, env.want)
	}
	m = metricsSnapshot(t, env2)
	delivered := m["chunks_delivered"].(map[string]any)
	if delivered["db"].(float64) == 0 {
		t.Errorf("warm query delivered nothing from the database: %v", delivered)
	}
	if err := env2.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestLoadCostMetrics: /metrics shows what loading costs the disk. A cold
// scan over the durable stack loads every chunk through group commits — fewer
// commits than chunks — and the fsyncs rise with them; a warm scan served from
// the cache writes nothing, and every counter stays where it was.
func TestLoadCostMetrics(t *testing.T) {
	env, man := newDurableServerEnv(t, t.TempDir())
	defer man.Close()
	query := func(what string) map[string]any {
		t.Helper()
		status, out := postQuery(t, env, `{"sql": "`+sumSQL+`"}`)
		if status != http.StatusOK {
			t.Fatalf("%s query status = %d: %v", what, status, out)
		}
		if got := int64(out["rows"].([]any)[0].([]any)[0].(float64)); got != env.want {
			t.Fatalf("%s sum = %d, want %d", what, got, env.want)
		}
		op, ok := env.srv.Operator("data")
		if !ok {
			t.Fatal("no operator after a query")
		}
		op.WaitIdle()
		return metricsSnapshot(t, env)
	}
	before := metricsSnapshot(t, env)
	cold := query("cold")
	chunks := float64(env.spec.Rows / 64)
	if got := cold["load_chunks_committed"].(float64); got != chunks {
		t.Errorf("cold scan committed %v chunk writes, want all %v chunks", got, chunks)
	}
	if n := cold["load_commits"].(float64); n < 1 || n >= chunks {
		t.Errorf("cold scan took %v commits for %v chunks", n, chunks)
	}
	if cold["store_syncs"].(float64) <= before["store_syncs"].(float64) || cold["store_sync_ms"].(float64) <= 0 {
		t.Errorf("syncs %v -> %v (%v ms): loading synced nothing", before["store_syncs"], cold["store_syncs"], cold["store_sync_ms"])
	}
	warm := query("warm")
	for _, k := range []string{"store_syncs", "store_sync_ms", "load_commits", "load_chunks_committed"} {
		if warm[k] != cold[k] {
			t.Errorf("%s moved on a warm scan: %v -> %v", k, cold[k], warm[k])
		}
	}
}

// TestDrainShedsNewQueries verifies the shutdown sequencing: once Drain has
// claimed the admission slots, late arrivals are shed with 429 rather than
// racing the checkpoint.
func TestDrainShedsNewQueries(t *testing.T) {
	env, man := newDurableServerEnv(t, t.TempDir())
	defer man.Close()
	if err := env.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(env.ts.URL+"/query", "application/json",
		strings.NewReader(`{"sql": "`+sumSQL+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("query during drain: status = %d, want 429", resp.StatusCode)
	}
}
