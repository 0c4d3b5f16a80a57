// Distributed end-to-end tests: a coordinator over a real worker fleet
// (each worker a full scanrawd server on its own virtual disk) must be
// observably identical to one scanrawd serving the whole table — byte-for-
// byte on the /query wire — across replicated-file and split-files
// deployments, peer death, torn mid-query streams, and streamed LIMIT.
//
// The package is cluster_test (not cluster) so it can import
// internal/server without a cycle; internal/server imports cluster for
// the wire types.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scanraw/internal/cluster"
	"scanraw/internal/dbstore"
	"scanraw/internal/gen"
	"scanraw/internal/scanraw"
	"scanraw/internal/server"
	"scanraw/internal/vdisk"
)

const fleetSchema = "c0:int64,c1:int64,c2:int64,c3:int64"

var fleetSpec = gen.CSVSpec{Rows: 600, Cols: 4, Seed: 42, MaxValue: 1000}

// rowsBytes materializes rows [lo,hi) of the generated CSV — the byte
// slice a split-files worker stores locally.
func rowsBytes(s gen.CSVSpec, lo, hi int) []byte {
	var out []byte
	for r := lo; r < hi; r++ {
		out = gen.AppendRow(out, s, r)
	}
	return out
}

// workerEnv is one fleet member: a full scanrawd server over its own
// virtual disk, fronted by a loopback HTTP server.
type workerEnv struct {
	srv *server.Server
	ts  *httptest.Server
}

// addr returns the host:port form the fleet config uses.
func (w *workerEnv) addr() string { return strings.TrimPrefix(w.ts.URL, "http://") }

// metrics fetches and decodes the worker's /metrics.
func (w *workerEnv) metrics(t *testing.T) map[string]any {
	t.Helper()
	resp, err := http.Get(w.ts.URL + "/metrics")
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

func counter(m map[string]any, key string) int64 {
	v, _ := m[key].(float64)
	return int64(v)
}

// newWorker builds a worker serving csv as table "data" with the given
// chunk geometry.
func newWorker(t testing.TB, csv []byte, chunkLines int) *workerEnv {
	return newWorkerCfg(t, csv, scanraw.Config{Workers: 2, ChunkLines: chunkLines, CacheChunks: 64})
}

// newWorkerCfg is newWorker with an explicit operator config, for fleets
// exercising loading and partial-width hits.
func newWorkerCfg(t testing.TB, csv []byte, opCfg scanraw.Config) *workerEnv {
	t.Helper()
	d := vdisk.Unlimited()
	d.Preload("raw/data.csv", csv)
	store := dbstore.NewStore(d)
	table, err := store.CreateTable("data", fleetSpec.Schema(), "raw/data.csv")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(store, server.Config{})
	if err := s.AddTable(table, opCfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &workerEnv{srv: s, ts: ts}
}

// newCoordinator validates the fleet config, starts a coordinator, and
// serves it over loopback.
func newCoordinator(t testing.TB, fc cluster.FleetConfig, cfg cluster.Config) (*cluster.Coordinator, *httptest.Server) {
	t.Helper()
	fleet, err := cluster.NewFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	co := cluster.NewCoordinator(fleet, cfg)
	t.Cleanup(co.Close)
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	return co, ts
}

// testClusterConfig keeps retries fast and disables background probing so
// tests control peer-health state explicitly.
func testClusterConfig() cluster.Config {
	return cluster.Config{
		PeerTimeout:    10 * time.Second,
		RetryBackoff:   time.Millisecond,
		HealthInterval: -1,
	}
}

// wireResponse captures the raw bytes of the columns and rows fields so
// comparisons are byte-exact, not merely semantically equal.
type wireResponse struct {
	Columns json.RawMessage `json:"columns"`
	Rows    json.RawMessage `json:"rows"`
	Stats   map[string]any  `json:"stats"`
	Error   string          `json:"error"`
}

func postWire(t *testing.T, baseURL, sql string) (int, wireResponse) {
	t.Helper()
	resp, err := http.Post(baseURL+"/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"sql": %q}`, sql)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out wireResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

// postNDJSON returns the status and the raw NDJSON lines of a streamed
// query.
func postNDJSON(t *testing.T, baseURL, sql string) (int, []string) {
	t.Helper()
	resp, err := http.Post(baseURL+"/query?stream=ndjson", "application/json",
		strings.NewReader(fmt.Sprintf(`{"sql": %q}`, sql)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
}

// diffQuery asserts the coordinator's answer is byte-identical to the
// reference single-process server's, on both the JSON and NDJSON paths.
// The stats blocks differ by design (policy, shard counts) and are only
// checked for presence.
func diffQuery(t *testing.T, coURL, refURL, sql string) {
	t.Helper()
	coSt, co := postWire(t, coURL, sql)
	refSt, ref := postWire(t, refURL, sql)
	if coSt != refSt {
		t.Fatalf("%s: status %d vs reference %d (err %q / %q)", sql, coSt, refSt, co.Error, ref.Error)
	}
	if refSt != http.StatusOK {
		return
	}
	if !bytes.Equal(co.Columns, ref.Columns) {
		t.Errorf("%s: columns diverge:\n  fleet: %s\n  ref:   %s", sql, co.Columns, ref.Columns)
	}
	if !bytes.Equal(co.Rows, ref.Rows) {
		t.Errorf("%s: rows diverge:\n  fleet: %s\n  ref:   %s", sql, co.Rows, ref.Rows)
	}
	if co.Stats == nil || ref.Stats == nil {
		t.Errorf("%s: missing stats block", sql)
	}
	checkStatsKeys(t, sql+" (json)", co.Stats, ref.Stats)

	coSt, coLines := postNDJSON(t, coURL, sql)
	refSt, refLines := postNDJSON(t, refURL, sql)
	if coSt != http.StatusOK || refSt != http.StatusOK {
		t.Fatalf("%s: ndjson status %d / %d", sql, coSt, refSt)
	}
	if len(coLines) != len(refLines) {
		t.Fatalf("%s: ndjson line count %d vs reference %d", sql, len(coLines), len(refLines))
	}
	last := len(coLines) - 1
	for i := 0; i < last; i++ {
		if coLines[i] != refLines[i] {
			t.Fatalf("%s: ndjson line %d diverges:\n  fleet: %s\n  ref:   %s", sql, i, coLines[i], refLines[i])
		}
	}
	var coTrailer, refTrailer wireResponse
	if json.Unmarshal([]byte(coLines[last]), &coTrailer) != nil || json.Unmarshal([]byte(refLines[last]), &refTrailer) != nil ||
		coTrailer.Stats == nil || refTrailer.Stats == nil {
		t.Fatalf("%s: ndjson trailer missing stats: %q / %q", sql, coLines[last], refLines[last])
	}
	checkStatsKeys(t, sql+" (ndjson)", coTrailer.Stats, refTrailer.Stats)
}

// checkStatsKeys is the wire-conformance check: a coordinator's stats block
// carries every key a single server's does (a client reads either with one
// decoder), and nothing beyond them but the four coordinator-only keys.
func checkStatsKeys(t *testing.T, what string, co, ref map[string]any) {
	t.Helper()
	for k := range ref {
		if _, ok := co[k]; !ok {
			t.Errorf("%s: coordinator stats lack %q", what, k)
		}
	}
	extras := map[string]bool{"shards": true, "shards_failed": true, "partial": true, "errors": true}
	for k := range co {
		if _, ok := ref[k]; !ok && !extras[k] {
			t.Errorf("%s: coordinator stats carry unexpected %q", what, k)
		}
	}
}

// differentialQueries is the randomized suite: every supported shape with
// seeded-random constants, so distributed and single-process execution are
// compared across SELECT/WHERE, aggregates, GROUP BY (with HAVING), and
// ORDER BY ... LIMIT.
func differentialQueries(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	c := func() int64 { return rng.Int63n(1000) }
	qs := []string{
		"SELECT c0, c1, c2, c3 FROM data",
		"SELECT SUM(c0), COUNT(*) FROM data",
		"SELECT MIN(c1), MAX(c2), AVG(c3) FROM data",
		"SELECT c0, SUM(c1), COUNT(*) FROM data GROUP BY c0",
	}
	for i := 0; i < 3; i++ {
		qs = append(qs,
			fmt.Sprintf("SELECT c0, c2 FROM data WHERE c1 > %d", c()),
			fmt.Sprintf("SELECT SUM(c0+c1) FROM data WHERE c2 < %d", c()),
			fmt.Sprintf("SELECT c1, c2 FROM data WHERE c3 > %d ORDER BY c0 LIMIT %d", c(), 1+rng.Intn(40)),
			fmt.Sprintf("SELECT c0 FROM data ORDER BY c0 DESC LIMIT %d", 1+rng.Intn(25)),
			fmt.Sprintf("SELECT c0, c1 FROM data LIMIT %d", 1+rng.Intn(50)),
			fmt.Sprintf("SELECT c3 FROM data WHERE c0 > %d LIMIT %d", c(), 1+rng.Intn(20)),
			fmt.Sprintf("SELECT c0, SUM(c1), COUNT(*) AS n FROM data WHERE c2 > %d GROUP BY c0 HAVING n > 1", c()),
		)
	}
	// Shapes with empty results: the wire must agree on those too — the
	// AVG of no rows is a null cell.
	qs = append(qs,
		"SELECT c0 FROM data WHERE c0 > 100000",
		"SELECT SUM(c0) FROM data WHERE c0 > 100000",
		"SELECT AVG(c0), COUNT(*) FROM data WHERE c0 > 100000",
	)
	return qs
}

// replicatedFleet serves the full CSV from every worker, sharded by chunk
// range; the last shard is open-ended.
func replicatedFleet(t testing.TB, chunkLines int) ([]*workerEnv, cluster.FleetConfig) {
	t.Helper()
	csv := gen.Bytes(fleetSpec)
	workers := []*workerEnv{
		newWorker(t, csv, chunkLines),
		newWorker(t, csv, chunkLines),
		newWorker(t, csv, chunkLines),
	}
	fc := cluster.FleetConfig{
		Peers: []cluster.PeerConfig{
			{Addr: workers[0].addr(), Owns: []cluster.OwnConfig{{Table: "data", Lo: 0, Hi: 8}}},
			{Addr: workers[1].addr(), Owns: []cluster.OwnConfig{{Table: "data", Lo: 8, Hi: 16}}},
			{Addr: workers[2].addr(), Owns: []cluster.OwnConfig{{Table: "data", Lo: 16, Hi: 0}}},
		},
		Tables: map[string]cluster.TableConfig{"data": {Schema: fleetSchema}},
	}
	return workers, fc
}

// TestDistributedDifferentialReplicated: 3-worker replicated-file fleet vs
// one server over the same file — byte-identical on every query shape.
func TestDistributedDifferentialReplicated(t *testing.T) {
	_, fc := replicatedFleet(t, 25) // 600 rows / 25 = 24 chunks, shards of 8
	_, coTS := newCoordinator(t, fc, testClusterConfig())
	ref := newWorker(t, gen.Bytes(fleetSpec), 25)
	for _, sql := range differentialQueries(1) {
		diffQuery(t, coTS.URL, ref.ts.URL, sql)
	}
}

// TestDistributedDifferentialSplit: each worker holds only its third of
// the rows as a local file, placed into the global chunk space by base.
func TestDistributedDifferentialSplit(t *testing.T) {
	workers := []*workerEnv{
		newWorker(t, rowsBytes(fleetSpec, 0, 200), 25),   // global chunks [0,8)
		newWorker(t, rowsBytes(fleetSpec, 200, 400), 25), // global chunks [8,16)
		newWorker(t, rowsBytes(fleetSpec, 400, 600), 25), // global chunks [16,24)
	}
	fc := cluster.FleetConfig{
		Peers: []cluster.PeerConfig{
			{Addr: workers[0].addr(), Owns: []cluster.OwnConfig{{Table: "data", Lo: 0, Hi: 8, Base: 0}}},
			{Addr: workers[1].addr(), Owns: []cluster.OwnConfig{{Table: "data", Lo: 0, Hi: 8, Base: 8}}},
			{Addr: workers[2].addr(), Owns: []cluster.OwnConfig{{Table: "data", Lo: 0, Hi: 0, Base: 16}}},
		},
		Tables: map[string]cluster.TableConfig{"data": {Schema: fleetSchema}},
	}
	_, coTS := newCoordinator(t, fc, testClusterConfig())
	ref := newWorker(t, gen.Bytes(fleetSpec), 25)
	for _, sql := range differentialQueries(2) {
		diffQuery(t, coTS.URL, ref.ts.URL, sql)
	}
}

// TestDistributedDifferentialColGroups: a fleet whose workers store
// per-column pages under payoff-ranked speculative loading vs a plain
// full-suite reference worker. A narrow warm-up query loads some columns on
// every worker, so the differential suite afterwards runs over mixed
// cold/partial/loaded chunks — the wire must stay byte-identical regardless
// of which columns each worker's speculation chose to write.
func TestDistributedDifferentialColGroups(t *testing.T) {
	csv := gen.Bytes(fleetSpec)
	opCfg := scanraw.Config{
		Workers: 2, ChunkLines: 25, CacheChunks: 8,
		Policy: scanraw.Speculative, Safeguard: true, CollectStats: true,
		Speculation: scanraw.SpecPayoff,
	}
	workers := []*workerEnv{
		newWorkerCfg(t, csv, opCfg),
		newWorkerCfg(t, csv, opCfg),
		newWorkerCfg(t, csv, opCfg),
	}
	fc := cluster.FleetConfig{
		Peers: []cluster.PeerConfig{
			{Addr: workers[0].addr(), Owns: []cluster.OwnConfig{{Table: "data", Lo: 0, Hi: 8}}},
			{Addr: workers[1].addr(), Owns: []cluster.OwnConfig{{Table: "data", Lo: 8, Hi: 16}}},
			{Addr: workers[2].addr(), Owns: []cluster.OwnConfig{{Table: "data", Lo: 16, Hi: 0}}},
		},
		Tables: map[string]cluster.TableConfig{"data": {Schema: fleetSchema}},
	}
	_, coTS := newCoordinator(t, fc, testClusterConfig())
	ref := newWorker(t, csv, 25)

	// Warm-up: a narrow query records workload on every worker and loads
	// c2 across the shards it touches.
	if status, out := postWire(t, coTS.URL, "SELECT SUM(c2) FROM data"); status != http.StatusOK {
		t.Fatalf("warm-up query: status %d (%s)", status, out.Error)
	}
	// Once the safeguard flushes have landed, a query that also needs c1
	// merges the loaded column with a narrow conversion: partial-width hits,
	// which the shard stats must carry into the coordinator's block.
	for _, w := range workers {
		if op, ok := w.srv.Operator("data"); ok {
			op.WaitIdle()
		}
	}
	status, out := postWire(t, coTS.URL, "SELECT SUM(c1+c2) FROM data")
	if status != http.StatusOK {
		t.Fatalf("wide query: status %d (%s)", status, out.Error)
	}
	n := func(key string) int { v, _ := out.Stats[key].(float64); return int(v) }
	if n("scan_chunks_partial") == 0 {
		t.Errorf("wide query after the warm-up reports no partial-width hit: %v", out.Stats)
	}
	if sum := n("scan_chunks_cache") + n("scan_chunks_db") + n("scan_chunks_raw") + n("scan_chunks_partial"); n("chunks_delivered") != sum || sum != 24 {
		t.Errorf("chunks_delivered = %d, sources sum to %d, want both 24: %v", n("chunks_delivered"), sum, out.Stats)
	}
	for _, sql := range differentialQueries(3) {
		diffQuery(t, coTS.URL, ref.ts.URL, sql)
	}
}

// TestDistributedReplicaFailover: the first-listed peer of a shard is
// dead; its replica must transparently serve, and the answers stay
// byte-identical.
func TestDistributedReplicaFailover(t *testing.T) {
	csv := gen.Bytes(fleetSpec)
	w0 := newWorker(t, csv, 25)
	w1 := newWorker(t, csv, 25)
	w2 := newWorker(t, csv, 25)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close() // the port now refuses connections

	fc := cluster.FleetConfig{
		Peers: []cluster.PeerConfig{
			{Addr: w0.addr(), Owns: []cluster.OwnConfig{{Table: "data", Lo: 0, Hi: 8}}},
			// Dead primary listed first: every query to shard [8,16) must
			// fail over to the replica on w1.
			{Addr: deadAddr, Owns: []cluster.OwnConfig{{Table: "data", Lo: 8, Hi: 16}}},
			{Addr: w1.addr(), Owns: []cluster.OwnConfig{{Table: "data", Lo: 8, Hi: 16}}},
			{Addr: w2.addr(), Owns: []cluster.OwnConfig{{Table: "data", Lo: 16, Hi: 0}}},
		},
		Tables: map[string]cluster.TableConfig{"data": {Schema: fleetSchema}},
	}
	co, coTS := newCoordinator(t, fc, testClusterConfig())
	ref := newWorker(t, csv, 25)

	// One aggregate (partial mode) and one scan (rows mode) both cross the
	// dead peer.
	diffQuery(t, coTS.URL, ref.ts.URL, "SELECT SUM(c0), COUNT(*) FROM data")
	diffQuery(t, coTS.URL, ref.ts.URL, "SELECT c0, c1 FROM data WHERE c2 > 500")

	m := co.MetricsSnapshot()
	if m.PeerFailures < 1 {
		t.Errorf("cluster_peer_failures = %d, want >= 1 (dead primary hit)", m.PeerFailures)
	}
	if m.PartialResults != 0 {
		t.Errorf("partial_results_total = %d, want 0 (replica failover is a full result)", m.PartialResults)
	}
	// The first failed attempt marks the peer unhealthy; later queries must
	// route straight to the replica instead of re-probing the corpse.
	for _, p := range m.Peers {
		if p.Addr == deadAddr {
			if p.Healthy {
				t.Error("dead peer still marked healthy after a failed attempt")
			}
			if p.Requests != 1 {
				t.Errorf("dead peer attempts = %d, want 1 (unhealthy peers are deprioritized)", p.Requests)
			}
		}
	}
}

// flakyProxy fronts a worker and tears the response of the first failN
// /exec calls after cut bytes, simulating a worker killed mid-stream. The
// coordinator must retry (through the same address) and dedup rows it
// already consumed from the torn stream.
type flakyProxy struct {
	target   string
	client   *http.Client
	failLeft atomic.Int64
	cut      int64
}

func newFlakyProxy(t *testing.T, target string, failN int, cut int64) *httptest.Server {
	t.Helper()
	tr := &http.Transport{}
	p := &flakyProxy{target: target, client: &http.Client{Transport: tr}, cut: cut}
	p.failLeft.Store(int64(failN))
	ts := httptest.NewServer(p)
	t.Cleanup(func() {
		ts.Close()
		tr.CloseIdleConnections()
	})
	return ts
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.String(), r.Body)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	if r.URL.Path == "/exec" && resp.StatusCode == http.StatusOK && p.failLeft.Add(-1) >= 0 {
		_, _ = io.CopyN(w, resp.Body, p.cut)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // kill the connection mid-body
	}
	_, _ = io.Copy(w, resp.Body)
}

// TestDistributedMidStreamKill: a shard's stream dies partway through —
// both mid-first-frame (nothing usable arrived) and after several complete
// frames (the dedup-skip path) — and the query still returns the exact
// single-process answer. The worker behind the torn connection must not
// count a failure (the cancellation accounting fix).
func TestDistributedMidStreamKill(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  int64
	}{
		{"mid_first_frame", 20},
		{"after_frames", 600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			csv := gen.Bytes(fleetSpec)
			w0 := newWorker(t, csv, 25)
			w1 := newWorker(t, csv, 25)
			proxy := newFlakyProxy(t, w0.ts.URL, 1, tc.cut)
			fc := cluster.FleetConfig{
				Peers: []cluster.PeerConfig{
					{Addr: strings.TrimPrefix(proxy.URL, "http://"),
						Owns: []cluster.OwnConfig{{Table: "data", Lo: 0, Hi: 16}}},
					{Addr: w1.addr(), Owns: []cluster.OwnConfig{{Table: "data", Lo: 16, Hi: 0}}},
				},
				Tables: map[string]cluster.TableConfig{"data": {Schema: fleetSchema}},
			}
			co, coTS := newCoordinator(t, fc, testClusterConfig())
			ref := newWorker(t, csv, 25)

			diffQuery(t, coTS.URL, ref.ts.URL, "SELECT c0, c1, c2, c3 FROM data")

			if m := co.MetricsSnapshot(); m.Retries < 1 {
				t.Errorf("cluster_retries = %d, want >= 1", m.Retries)
			}
			// Satellite: the worker saw its client vanish mid-stream; that is
			// a cancellation, never a logged failure.
			wm := w0.metrics(t)
			if got := counter(wm, "failed_total"); got != 0 {
				t.Errorf("worker failed_total = %d, want 0 after torn stream", got)
			}
		})
	}
}

// TestDistributedPartialResult: a shard with no live replica. Aggregates
// degrade to an explicit partial result over the surviving shards; rows
// mode fails loudly. Neither hangs, neither fabricates a full answer.
func TestDistributedPartialResult(t *testing.T) {
	csv := gen.Bytes(fleetSpec)
	w0 := newWorker(t, csv, 25)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close()

	fc := cluster.FleetConfig{
		Peers: []cluster.PeerConfig{
			{Addr: w0.addr(), Owns: []cluster.OwnConfig{{Table: "data", Lo: 0, Hi: 8}}},
			{Addr: deadAddr, Owns: []cluster.OwnConfig{{Table: "data", Lo: 8, Hi: 0}}},
		},
		Tables: map[string]cluster.TableConfig{"data": {Schema: fleetSchema}},
	}
	co, coTS := newCoordinator(t, fc, testClusterConfig())

	status, out := postWire(t, coTS.URL, "SELECT SUM(c0+c1+c2+c3) FROM data")
	if status != http.StatusOK {
		t.Fatalf("aggregate over degraded fleet: status %d (%s)", status, out.Error)
	}
	if p, _ := out.Stats["partial"].(bool); !p {
		t.Fatalf("stats.partial not set on degraded result: %v", out.Stats)
	}
	if f, _ := out.Stats["shards_failed"].(float64); int(f) != 1 {
		t.Errorf("stats.shards_failed = %v, want 1", out.Stats["shards_failed"])
	}
	// The surviving shard is chunks [0,8) = rows [0,200); the partial sum
	// must be exactly that slice, not a guess.
	var rows [][]json.Number
	dec := json.NewDecoder(bytes.NewReader(out.Rows))
	dec.UseNumber()
	if err := dec.Decode(&rows); err != nil || len(rows) != 1 || len(rows[0]) != 1 {
		t.Fatalf("partial aggregate rows: %s (%v)", out.Rows, err)
	}
	got, _ := rows[0][0].Int64()
	want := gen.SumRange(fleetSpec, []int{0, 1, 2, 3}, 0, 200)
	if got != want {
		t.Errorf("partial sum = %d, want %d (rows [0,200))", got, want)
	}
	if co.MetricsSnapshot().PartialResults != 1 {
		t.Errorf("partial_results_total = %d, want 1", co.MetricsSnapshot().PartialResults)
	}

	// Rows mode cannot soundly skip a shard: the query must fail loudly.
	status, out = postWire(t, coTS.URL, "SELECT c0 FROM data")
	if status != http.StatusBadGateway {
		t.Fatalf("rows-mode with dead shard: status %d, want 502 (%s)", status, out.Error)
	}
	if out.Error == "" {
		t.Error("rows-mode failure carried no error message")
	}
}

// TestDistributedLimitCancelsRemote: the acceptance criterion for
// speculative termination across the network — a streamed LIMIT satisfied
// from early chunks must terminate the remote scans (worker ChunksSaved
// observable via metrics) and must never register as a worker failure.
func TestDistributedLimitCancelsRemote(t *testing.T) {
	workers, fc := replicatedFleet(t, 25)
	co, coTS := newCoordinator(t, fc, testClusterConfig())
	ref := newWorker(t, gen.Bytes(fleetSpec), 25)

	// ChunksSaved counts known chunks only, and a cold scan stopped after
	// carving its first chunk knows of nothing to save — then or on any later
	// scan, which the cached chunk satisfies before READ starts. So every
	// worker discovers its shard first (one full scan through the fleet) and
	// drops what that cached, leaving the LIMIT below a conversion to stop.
	diffQuery(t, coTS.URL, ref.ts.URL, "SELECT COUNT(*) FROM data")
	for _, w := range workers {
		if op, ok := w.srv.Operator("data"); ok {
			op.Cache().Clear()
		}
	}
	before := counter(workers[0].metrics(t), "chunks_saved_by_termination")

	// The owning worker's demand layer stops its scan after the first
	// chunk (25 rows >= LIMIT 5): early termination with saved chunks.
	// Which of two stops reaches the worker's scan first is a schedule: its
	// own demand layer (counted here) or the coordinator's cancellation once
	// it holds five rows (counted as cancelled_total). Ask again while the
	// coordinator won every time; from the second ask on the worker's stop
	// is a single inline cache hit, so a broken demand layer is what fails.
	sql := "SELECT c0 FROM data LIMIT 5"
	var m0 map[string]any
	for attempt := 0; attempt < 5; attempt++ {
		diffQuery(t, coTS.URL, ref.ts.URL, sql)
		m0 = workers[0].metrics(t)
		if counter(m0, "scans_terminated_early") >= 1 && counter(m0, "chunks_saved_by_termination") > before {
			break
		}
	}
	if got := counter(m0, "scans_terminated_early"); got < 1 {
		t.Errorf("worker0 scans_terminated_early = %d, want >= 1", got)
	}
	if got := counter(m0, "chunks_saved_by_termination"); got <= before {
		t.Errorf("worker0 chunks_saved_by_termination = %d, want > %d", got, before)
	}
	for i, w := range workers {
		if got := counter(w.metrics(t), "failed_total"); got != 0 {
			t.Errorf("worker%d failed_total = %d, want 0 (cancellation is not failure)", i, got)
		}
	}
	cm := co.MetricsSnapshot()
	if cm.PeerRequests < 3 {
		t.Errorf("cluster_peer_requests = %d, want >= 3 (one per shard)", cm.PeerRequests)
	}
}

// TestDistributedDrainSkip: a draining worker flips its readiness; the
// health prober sees it and the coordinator routes its shard to the
// replica without a failed attempt.
func TestDistributedDrainSkip(t *testing.T) {
	csv := gen.Bytes(fleetSpec)
	w0 := newWorker(t, csv, 25)
	w1 := newWorker(t, csv, 25)
	fc := cluster.FleetConfig{
		Peers: []cluster.PeerConfig{
			{Addr: w0.addr(), Owns: []cluster.OwnConfig{{Table: "data", Lo: 0, Hi: 0}}},
			{Addr: w1.addr(), Owns: []cluster.OwnConfig{{Table: "data", Lo: 0, Hi: 0}}},
		},
		Tables: map[string]cluster.TableConfig{"data": {Schema: fleetSchema}},
	}
	cfg := testClusterConfig()
	cfg.HealthInterval = 20 * time.Millisecond
	co, coTS := newCoordinator(t, fc, cfg)

	// Readiness flips synchronously at Drain entry.
	if err := w0.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(w0.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d, want 503", resp.StatusCode)
	}

	// Wait for a probe cycle to observe the drain.
	deadline := time.Now().Add(2 * time.Second)
	for {
		m := co.MetricsSnapshot()
		if len(m.Peers) == 2 && (m.Peers[0].Draining || m.Peers[1].Draining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never observed the drain: %+v", m.Peers)
		}
		time.Sleep(5 * time.Millisecond)
	}

	status, out := postWire(t, coTS.URL, "SELECT SUM(c0) FROM data")
	if status != http.StatusOK {
		t.Fatalf("query during drain: status %d (%s)", status, out.Error)
	}
	m := co.MetricsSnapshot()
	var drainedReq, liveReq int64
	for _, p := range m.Peers {
		if p.Draining {
			drainedReq = p.Requests
		} else {
			liveReq = p.Requests
		}
	}
	if drainedReq != 0 {
		t.Errorf("draining peer served %d exec requests, want 0", drainedReq)
	}
	if liveReq < 1 {
		t.Errorf("live replica served %d exec requests, want >= 1", liveReq)
	}
}

// TestCoordinatorEndpoints covers the coordinator's own identity and
// observability surface.
func TestCoordinatorEndpoints(t *testing.T) {
	_, fc := replicatedFleet(t, 25)
	_, coTS := newCoordinator(t, fc, testClusterConfig())

	resp, err := http.Get(coTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz["role"] != "coordinator" {
		t.Fatalf("coordinator /healthz: %d %v", resp.StatusCode, hz)
	}

	resp, err = http.Get(coTS.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var fcOut cluster.FleetConfig
	if err := json.NewDecoder(resp.Body).Decode(&fcOut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(fcOut.Peers) != 3 {
		t.Fatalf("/fleet peers = %d, want 3", len(fcOut.Peers))
	}

	// Run one merge-path query, then assert the metrics counters moved.
	if status, out := postWire(t, coTS.URL, "SELECT SUM(c0) FROM data"); status != http.StatusOK {
		t.Fatalf("warmup query: %d (%s)", status, out.Error)
	}
	resp, err = http.Get(coTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mm map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&mm)
	resp.Body.Close()
	if counter(mm, "queries_total") < 1 || counter(mm, "cluster_peer_requests") < 3 {
		t.Fatalf("coordinator metrics did not advance: %v", mm)
	}
	for _, key := range []string{"cluster_peer_failures", "cluster_retries", "cluster_merge_ms", "peers", "tables", "uptime_ms"} {
		if _, ok := mm[key]; !ok {
			t.Errorf("coordinator /metrics missing %q", key)
		}
	}

	// Bad queries are rejected before any peer traffic.
	if status, _ := postWire(t, coTS.URL, "SELECT c9 FROM data"); status != http.StatusBadRequest {
		t.Errorf("unknown column: status %d, want 400", status)
	}
	if status, _ := postWire(t, coTS.URL, "SELECT c0 FROM nope"); status != http.StatusNotFound {
		t.Errorf("unknown table: status %d, want 404", status)
	}
}

// TestFleetConfigPersistence: the durable catalog round-trips the fleet
// blob with seal/verify, and reports absence cleanly.
func TestFleetConfigPersistence(t *testing.T) {
	store := dbstore.NewStore(vdisk.Unlimited())
	if _, ok, err := store.LoadFleetConfig(); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v, want absent", ok, err)
	}
	blob := []byte(`{"peers":[{"addr":"w1","owns":[{"table":"data"}]}],"tables":{"data":{"schema":"c0:int64"}}}`)
	if err := store.SaveFleetConfig(blob); err != nil {
		t.Fatal(err)
	}
	got, ok, err := store.LoadFleetConfig()
	if err != nil || !ok || !bytes.Equal(got, blob) {
		t.Fatalf("round-trip: ok=%v err=%v got=%s", ok, err, got)
	}
	// Overwrite wins.
	blob2 := []byte(`{"peers":[],"tables":{}}`)
	if err := store.SaveFleetConfig(blob2); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := store.LoadFleetConfig(); !bytes.Equal(got, blob2) {
		t.Fatalf("overwrite: got %s", got)
	}
}
