package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"scanraw/internal/cluster"
	"scanraw/internal/dbstore"
	"scanraw/internal/gen"
	"scanraw/internal/scanraw"
	"scanraw/internal/schema"
	"scanraw/internal/store"
	"scanraw/internal/vdisk"
)

// serverEnv is a served table over a generated CSV plus a loopback HTTP
// server in front of it.
type serverEnv struct {
	srv  *Server
	ts   *httptest.Server
	spec gen.CSVSpec
	want int64 // SUM of every cell
}

func newServerEnv(t *testing.T, rows int, d store.Disk, cfg Config, opCfg scanraw.Config) *serverEnv {
	t.Helper()
	if d == nil {
		d = vdisk.Unlimited()
	}
	spec := gen.CSVSpec{Rows: rows, Cols: 4, Seed: 42, MaxValue: 1000}
	d.Preload("raw/data.csv", gen.Bytes(spec))
	st := dbstore.NewStore(d)
	table, err := st.CreateTable("data", spec.Schema(), "raw/data.csv")
	if err != nil {
		t.Fatal(err)
	}
	if opCfg.ChunkLines == 0 {
		opCfg.ChunkLines = 64
	}
	s := New(st, cfg)
	if err := s.AddTable(table, opCfg); err != nil {
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
	}
}

const sumSQL = "SELECT SUM(c0+c1+c2+c3) FROM data"

// postQuery POSTs a /query body and returns status plus decoded JSON.
func postQuery(t *testing.T, env *serverEnv, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(env.ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

// firstValue digs rows[0][0] out of a decoded query response.
func firstValue(t *testing.T, out map[string]any) int64 {
	t.Helper()
	rows, ok := out["rows"].([]any)
	if !ok || len(rows) == 0 {
		t.Fatalf("no rows in response: %v", out)
	}
	row := rows[0].([]any)
	return int64(row[0].(float64))
}

func TestQueryEndToEnd(t *testing.T) {
	env := newServerEnv(t, 512, nil, Config{}, scanraw.Config{Workers: 2, CacheChunks: 8})
	status, out := postQuery(t, env, fmt.Sprintf(`{"sql": %q}`, sumSQL))
	if status != http.StatusOK {
		t.Fatalf("status = %d: %v", status, out)
	}
	if got := firstValue(t, out); got != env.want {
		t.Errorf("sum = %d, want %d", got, env.want)
	}
	stats := out["stats"].(map[string]any)
	if stats["batch_size"].(float64) < 1 {
		t.Errorf("stats.batch_size = %v", stats["batch_size"])
	}
	// WHERE with a predicate still works through the serving path.
	status, out = postQuery(t, env, `{"sql": "SELECT COUNT(*) FROM data WHERE c0 < 0"}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %v", status, out)
	}
	if got := firstValue(t, out); got != 0 {
		t.Errorf("count = %d, want 0", got)
	}
}

// TestQueryReportsScanSkips: a solo query whose predicate rules chunks out by
// their statistics reports those chunks in its stats block's chunks_skipped,
// exactly the chunks the catalog's min/max eliminates — whether the chunks
// were converted first and dropped at delivery (the cold run, which collects
// the statistics) or never read at all (the warm run, skipped by the scan).
func TestQueryReportsScanSkips(t *testing.T) {
	d := vdisk.Unlimited()
	var csv bytes.Buffer
	for i := 0; i < 512; i++ {
		fmt.Fprintf(&csv, "%d,%d\n", i, i%7)
	}
	d.Preload("raw/data.csv", csv.Bytes())
	sch, err := schema.ParseSpec("c0:int,c1:int")
	if err != nil {
		t.Fatal(err)
	}
	st := dbstore.NewStore(d)
	table, err := st.CreateTable("data", sch, "raw/data.csv")
	if err != nil {
		t.Fatal(err)
	}
	s := New(st, Config{})
	if err := s.AddTable(table, scanraw.Config{Workers: 2, ChunkLines: 64, CacheChunks: 2, CollectStats: true}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	env := &serverEnv{srv: s, ts: ts}

	const sql = `{"sql": "SELECT COUNT(*) FROM data WHERE c0 < 100"}`
	n := func(out map[string]any, key string) int { return int(out["stats"].(map[string]any)[key].(float64)) }
	for run := 0; run < 2; run++ {
		status, out := postQuery(t, env, sql)
		if status != http.StatusOK || firstValue(t, out) != 100 {
			t.Fatalf("run %d: status %d, %v", run, status, out)
		}
		if run > 0 && n(out, "scan_chunks_raw")+n(out, "scan_chunks_cache") != 2 {
			t.Errorf("warm run read %v", out["stats"])
		}
		eliminated := 0
		for id := 0; id < table.NumChunks(); id++ {
			if meta, _ := table.Chunk(id); meta.Stats[0].Valid && meta.Stats[0].MinInt >= 100 {
				eliminated++
			}
		}
		if skipped := n(out, "chunks_skipped"); skipped != eliminated || eliminated != 6 || n(out, "chunks_delivered") != 2 {
			t.Errorf("run %d: chunks_skipped = %d, the predicate eliminates %d of %d chunks", run, skipped, eliminated, table.NumChunks())
		}
	}
}

func TestCoalescingSharesScan(t *testing.T) {
	const clients = 8
	env := newServerEnv(t, 1024, nil,
		Config{MaxConcurrent: 16, CoalesceWindow: 50 * time.Millisecond},
		scanraw.Config{Workers: 4, CacheChunks: 4, Policy: scanraw.Speculative, Safeguard: true})

	var wg sync.WaitGroup
	start := make(chan struct{})
	sums := make([]int64, clients)
	batchSizes := make([]int, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(env.ts.URL+"/query", "application/json",
				strings.NewReader(fmt.Sprintf(`{"sql": %q}`, sumSQL)))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var out map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %v", resp.StatusCode, out)
				return
			}
			rows := out["rows"].([]any)
			sums[i] = int64(rows[0].([]any)[0].(float64))
			batchSizes[i] = int(out["stats"].(map[string]any)["batch_size"].(float64))
		}(i)
	}
	close(start)
	wg.Wait()

	shared := 0
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if sums[i] != env.want {
			t.Errorf("client %d: sum = %d, want %d", i, sums[i], env.want)
		}
		if batchSizes[i] > 1 {
			shared++
		}
	}
	snap := env.srv.MetricsSnapshot()
	if snap.Queries != clients {
		t.Errorf("queries_total = %d, want %d", snap.Queries, clients)
	}
	if snap.PhysicalScans >= clients {
		t.Errorf("physical scans = %d for %d queries: coalescing did not merge any",
			snap.PhysicalScans, clients)
	}
	if shared == 0 || snap.CoalescedQueries == 0 {
		t.Errorf("no query shared its scan (batch sizes %v, coalesced_total %d)",
			batchSizes, snap.CoalescedQueries)
	}
}

func TestAdmissionControlShedsWith429(t *testing.T) {
	// One slot, slow disk: the first query occupies the server while the
	// second arrives and must be shed immediately.
	d := vdisk.New(vdisk.Config{ReadBandwidth: 1 << 18, WriteBandwidth: 1 << 18})
	env := newServerEnv(t, 4096, d,
		Config{MaxConcurrent: 1, CoalesceWindow: -1},
		scanraw.Config{Workers: 2, ChunkLines: 256, CacheChunks: 2})

	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(env.ts.URL+"/query", "application/json",
			strings.NewReader(fmt.Sprintf(`{"sql": %q}`, sumSQL)))
		if err != nil {
			firstDone <- err
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			firstDone <- fmt.Errorf("first query status %d", resp.StatusCode)
			return
		}
		firstDone <- nil
	}()

	// Wait until the first query holds the admission slot.
	deadline := time.Now().Add(2 * time.Second)
	for len(env.srv.slots) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first query never took the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(env.ts.URL+"/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"sql": %q}`, sumSQL)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("second query status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response lacks Retry-After")
	}
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if snap := env.srv.MetricsSnapshot(); snap.Rejected == 0 {
		t.Errorf("rejected_total = %d, want > 0", snap.Rejected)
	}
}

func TestDisconnectCancelsScanAndFreesDisk(t *testing.T) {
	d := vdisk.New(vdisk.Config{ReadBandwidth: 1 << 18, WriteBandwidth: 1 << 18})
	env := newServerEnv(t, 4096, d,
		Config{MaxConcurrent: 4},
		scanraw.Config{Workers: 2, ChunkLines: 256, CacheChunks: 2})

	// A client starts a slow scan, then walks away mid-query.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, env.ts.URL+"/query",
		strings.NewReader(fmt.Sprintf(`{"sql": %q}`, sumSQL)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("request should have failed with a cancelled context")
	}

	// The abandoned scan must wind down, release the disk accessor and the
	// operator's run mutex, and get accounted as cancelled.
	deadline := time.Now().Add(5 * time.Second)
	for env.srv.MetricsSnapshot().Cancelled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cancelled_total never incremented")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A fresh query runs to completion with the right answer.
	status, out := postQuery(t, env, fmt.Sprintf(`{"sql": %q}`, sumSQL))
	if status != http.StatusOK {
		t.Fatalf("follow-up status = %d: %v", status, out)
	}
	if got := firstValue(t, out); got != env.want {
		t.Errorf("follow-up sum = %d, want %d", got, env.want)
	}
}

func TestQueryTimeoutReturns504(t *testing.T) {
	d := vdisk.New(vdisk.Config{ReadBandwidth: 1 << 18, WriteBandwidth: 1 << 18})
	env := newServerEnv(t, 4096, d,
		Config{},
		scanraw.Config{Workers: 2, ChunkLines: 256, CacheChunks: 2})
	status, out := postQuery(t, env, fmt.Sprintf(`{"sql": %q, "timeout_ms": 5}`, sumSQL))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %v", status, out)
	}
	if snap := env.srv.MetricsSnapshot(); snap.TimedOut == 0 {
		t.Errorf("timed_out_total = %d, want > 0", snap.TimedOut)
	}
	// Timed-out pipeline released everything: retry without a limit works.
	status, out = postQuery(t, env, fmt.Sprintf(`{"sql": %q}`, sumSQL))
	if status != http.StatusOK {
		t.Fatalf("retry status = %d: %v", status, out)
	}
	if got := firstValue(t, out); got != env.want {
		t.Errorf("retry sum = %d, want %d", got, env.want)
	}
}

func TestErrorResponses(t *testing.T) {
	env := newServerEnv(t, 128, nil, Config{}, scanraw.Config{Workers: 2})
	cases := []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},                                        // malformed JSON
		{`{"sql": ""}`, http.StatusBadRequest},                              // empty SQL
		{`{"sql": "SELECT SUM(c0)"}`, http.StatusBadRequest},                // no FROM
		{`{"sql": "SELECT SUM(c0) FROM nope"}`, http.StatusNotFound},        // unknown table
		{`{"sql": "SELECT SUM(missing) FROM data"}`, http.StatusBadRequest}, // bad column
	}
	for _, c := range cases {
		status, out := postQuery(t, env, c.body)
		if status != c.want {
			t.Errorf("body %s: status = %d, want %d (%v)", c.body, status, c.want, out)
		}
		if _, ok := out["error"]; !ok {
			t.Errorf("body %s: error response lacks error field: %v", c.body, out)
		}
	}
}

func TestNDJSONStreaming(t *testing.T) {
	env := newServerEnv(t, 256, nil, Config{}, scanraw.Config{Workers: 2})
	resp, err := http.Post(env.ts.URL+"/query?stream=ndjson", "application/json",
		strings.NewReader(fmt.Sprintf(`{"sql": %q}`, sumSQL)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var lines []map[string]any
	var rows [][]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if bytes.HasPrefix(line, []byte("[")) {
			var row []any
			if err := json.Unmarshal(line, &row); err != nil {
				t.Fatalf("row line %s: %v", line, err)
			}
			rows = append(rows, row)
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("line %s: %v", line, err)
		}
		lines = append(lines, obj)
	}
	if len(lines) != 2 {
		t.Fatalf("want columns header + stats trailer, got %d objects", len(lines))
	}
	if _, ok := lines[0]["columns"]; !ok {
		t.Errorf("first line is not a columns header: %v", lines[0])
	}
	if _, ok := lines[1]["stats"]; !ok {
		t.Errorf("last line is not a stats trailer: %v", lines[1])
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if got := int64(rows[0][0].(float64)); got != env.want {
		t.Errorf("streamed sum = %d, want %d", got, env.want)
	}
}

// TestEmptyAverageIsNull: AVG over no qualifying rows is NaN, which JSON
// cannot carry; the reply is a null cell — not an empty 200, and not a
// stream missing the aggregate's only row.
func TestEmptyAverageIsNull(t *testing.T) {
	env := newServerEnv(t, 128, nil, Config{}, scanraw.Config{Workers: 2})
	const body = `{"sql": "SELECT AVG(c0), COUNT(c0) FROM data WHERE c0 < -5"}`
	want := []any{nil, float64(0)}

	status, out := postQuery(t, env, body)
	rows, _ := out["rows"].([]any)
	if status != http.StatusOK || len(rows) != 1 || !reflect.DeepEqual(rows[0], want) {
		t.Errorf("json reply = %d %v, want one row %v", status, out, want)
	}
	if _, ok := out["stats"]; !ok {
		t.Errorf("json reply lacks stats: %v", out)
	}

	resp, err := http.Post(env.ts.URL+"/query?stream=ndjson", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	streamed, objs := readNDJSON(t, resp.Body)
	if len(streamed) != 1 || !reflect.DeepEqual(streamed[0], want) {
		t.Errorf("ndjson rows = %v, want one row %v", streamed, want)
	}
	if len(objs) != 2 || objs[1]["stats"] == nil {
		t.Errorf("ndjson stream lacks header or stats trailer: %v", objs)
	}
}

// readNDJSON splits a streaming response into its row lines (JSON arrays)
// and object lines (header, trailer, in-band errors).
func readNDJSON(t *testing.T, body io.Reader) (rows [][]any, objs []map[string]any) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if bytes.HasPrefix(line, []byte("[")) {
			var row []any
			if err := json.Unmarshal(line, &row); err != nil {
				t.Fatalf("row line %s: %v", line, err)
			}
			rows = append(rows, row)
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("line %s: %v", line, err)
		}
		objs = append(objs, obj)
	}
	return rows, objs
}

// TestDeepNestingIs400: an expression nested past the parser's bound is a
// bad request on both query endpoints, answered before any scan.
func TestDeepNestingIs400(t *testing.T) {
	env := newServerEnv(t, 256, nil, Config{}, scanraw.Config{Workers: 2})
	sql := "SELECT SUM(" + strings.Repeat("(", 10_000) + "c0" + strings.Repeat(")", 10_000) + ") FROM data"
	for _, c := range []struct {
		path string
		req  any
	}{
		{"/query", map[string]string{"sql": sql}},
		{"/exec", cluster.ExecRequest{SQL: sql, Mode: cluster.ModePartial}},
	} {
		body, _ := json.Marshal(c.req)
		resp, err := http.Post(env.ts.URL+c.path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(reply, []byte("nested deeper than")) {
			t.Errorf("%s: status %d: %s", c.path, resp.StatusCode, reply)
		}
	}
}

// TestStreamingLimit checks that a streamed LIMIT stops at the limit.
func TestStreamingLimit(t *testing.T) {
	env := newServerEnv(t, 1024, nil, Config{}, scanraw.Config{Workers: 2})
	resp, err := http.Post(env.ts.URL+"/query?stream=ndjson", "application/json",
		strings.NewReader(`{"sql": "SELECT c0 FROM data LIMIT 7"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rows, _ := readNDJSON(t, resp.Body)
	if len(rows) != 7 {
		t.Errorf("streamed %d rows, want 7", len(rows))
	}
}

func TestTablesEndpoint(t *testing.T) {
	env := newServerEnv(t, 256, nil, Config{},
		scanraw.Config{Workers: 2, Policy: scanraw.FullLoad, Safeguard: true})
	// Before any query: catalog known, nothing loaded, no live operator.
	resp, err := http.Get(env.ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	var tables []TableStatus
	if err := json.NewDecoder(resp.Body).Decode(&tables); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tables) != 1 || tables[0].Name != "data" {
		t.Fatalf("tables = %+v", tables)
	}
	if tables[0].LiveOperator || tables[0].FullyLoaded {
		t.Errorf("fresh table reports live=%v loaded=%v", tables[0].LiveOperator, tables[0].FullyLoaded)
	}
	if len(tables[0].Columns) != 4 || tables[0].Columns[0].Name != "c0" {
		t.Errorf("columns = %+v", tables[0].Columns)
	}

	if status, out := postQuery(t, env, fmt.Sprintf(`{"sql": %q}`, sumSQL)); status != http.StatusOK {
		t.Fatalf("query status = %d: %v", status, out)
	}
	// Loading may finish on the background flusher; wait it out before
	// asserting the catalog view.
	if op, ok := env.srv.Operator("data"); ok {
		op.WaitIdle()
	}

	resp, err = http.Get(env.ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&tables); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !tables[0].Complete || tables[0].Chunks != 4 {
		t.Errorf("after full-load query: complete=%v chunks=%d", tables[0].Complete, tables[0].Chunks)
	}
	if !tables[0].FullyLoaded || tables[0].LoadedChunks != 4 {
		t.Errorf("after full-load query: fully_loaded=%v loaded=%d", tables[0].FullyLoaded, tables[0].LoadedChunks)
	}
}

// TestConcurrentClientsEndToEnd is the acceptance scenario: many
// concurrent clients over loopback against one raw CSV — every client
// gets the right answer, the server performs fewer physical scans than it
// serves queries, and the metrics snapshot is populated. Half the clients
// stream rows as NDJSON, so coalesced batches mix executors and row
// emitters; each client's rows must equal a serial server's, in its order.
func TestConcurrentClientsEndToEnd(t *testing.T) {
	ref := newServerEnv(t, 2048, nil, Config{}, scanraw.Config{Workers: 4, ChunkLines: 256, CacheChunks: 8})
	want := make(map[clientQuery]string)
	for i := 0; i < 4; i++ {
		q := clientQueryFor(i, ref)
		status, body, err := q.post(ref.ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = clientRows(t, q, status, body)
	}
	// Consume is serial: one worker feeds every coalesced query.
	t.Run("consume-workers=1", func(t *testing.T) {
		testConcurrentClients(t, want)
	})
}

// testConcurrentClients runs TestConcurrentClientsEndToEnd's clients at
// once against a coalescing server and checks each reply against want.
func testConcurrentClients(t *testing.T, want map[clientQuery]string) {
	const clients = 12
	env := newServerEnv(t, 2048, nil,
		Config{MaxConcurrent: clients, CoalesceWindow: 40 * time.Millisecond},
		scanraw.Config{Workers: 4, ChunkLines: 256, CacheChunks: 8,
			Policy: scanraw.Speculative, Safeguard: true, CollectStats: true})
	type result struct {
		status int
		body   []byte
		err    error
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			status, body, err := clientQueryFor(i, env).post(env.ts.URL)
			results[i] = result{status, body, err}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("client %d: %v", i, r.err)
		}
		q := clientQueryFor(i, env)
		if got := clientRows(t, q, r.status, r.body); got != want[q] {
			t.Errorf("client %d (%s): rows differ from a serial server's\ngot:  %.200s\nwant: %.200s", i, q.sql, got, want[q])
		}
	}

	// The last scan's safeguard flush runs in the background and pins each
	// chunk while it writes it: wait it out, or the pin gauge below can
	// catch a pin that is held, not leaked.
	if op, ok := env.srv.Operator("data"); ok {
		op.WaitIdle()
	}
	snap := env.srv.MetricsSnapshot()
	if snap.Queries != clients {
		t.Errorf("queries_total = %d, want %d", snap.Queries, clients)
	}
	if snap.PhysicalScans >= clients {
		t.Errorf("physical_scans_total = %d, want < %d queries", snap.PhysicalScans, clients)
	}
	if snap.ChunksDelivered.Raw == 0 {
		t.Error("no chunks delivered from the raw file")
	}
	if snap.Tables != 1 || snap.LiveOperators != 1 {
		t.Errorf("tables = %d, live_operators = %d", snap.Tables, snap.LiveOperators)
	}
	if len(snap.QueriesByPolicy) == 0 {
		t.Error("queries_by_policy is empty")
	}
	if snap.CacheEntries == 0 {
		t.Error("cache_entries = 0 after cached scans")
	}
	if snap.CacheBytes == 0 || snap.CacheBytes > snap.CacheCapacityBytes {
		t.Errorf("cache_bytes = %d of cache_capacity_bytes = %d, want some, within the budget", snap.CacheBytes, snap.CacheCapacityBytes)
	}
	// Every query has drained, so a nonzero pin gauge is a pin leak.
	if snap.CachePinnedEntries != 0 || snap.CachePinCount != 0 {
		t.Errorf("pin leak: cache_pinned_entries = %d, cache_pin_count = %d, want 0/0",
			snap.CachePinnedEntries, snap.CachePinCount)
	}

	// The /metrics endpoint itself serves the same snapshot as JSON.
	resp, err := http.Get(env.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"queries_total", "physical_scans_total", "worker_busy_percent",
		"disk_busy_percent", "cache_hit_rate", "chunks_delivered", "queries_by_policy",
		"cache_entries", "cache_pinned_entries", "cache_pin_count", "cache_bytes", "cache_capacity_bytes"} {
		if _, ok := m[key]; !ok {
			t.Errorf("/metrics lacks %q", key)
		}
	}
	if m["queries_total"].(float64) != clients {
		t.Errorf("/metrics queries_total = %v", m["queries_total"])
	}
}

// clientQuery is what one client of TestConcurrentClientsEndToEnd asks:
// an aggregate with its known answer, or a row query streamed as NDJSON.
type clientQuery struct {
	sql    string
	stream bool
	want   int64 // the aggregate's value; unused for a stream
}

// clientQueryFor gives odd clients the streamed row query and alternates
// the even ones between SUM and COUNT(*).
func clientQueryFor(i int, env *serverEnv) clientQuery {
	switch {
	case i%2 == 1:
		return clientQuery{sql: "SELECT c0, c1 FROM data WHERE c3 >= 900", stream: true}
	case i%4 == 2:
		return clientQuery{sql: "SELECT COUNT(*) FROM data", want: int64(env.spec.Rows)}
	default:
		return clientQuery{sql: sumSQL, want: env.want}
	}
}

// post sends the query and returns the whole reply; it makes no test
// assertions, so client goroutines can call it.
func (q clientQuery) post(base string) (int, []byte, error) {
	url := base + "/query"
	if q.stream {
		url += "?stream=ndjson"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(fmt.Sprintf(`{"sql": %q}`, q.sql)))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// clientRows checks a reply to q and returns its rows as JSON.
func clientRows(t *testing.T, q clientQuery, status int, body []byte) string {
	t.Helper()
	if status != http.StatusOK {
		t.Fatalf("%s: status %d: %s", q.sql, status, body)
	}
	if q.stream {
		rows, objs := readNDJSON(t, bytes.NewReader(body))
		if len(objs) != 2 || objs[1]["stats"] == nil {
			t.Fatalf("%s: stream lacks header or stats trailer: %v", q.sql, objs)
		}
		if len(rows) == 0 {
			t.Fatalf("%s: streamed no rows; predicate expected matches", q.sql)
		}
		out, _ := json.Marshal(rows)
		return string(out)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("%s: decoding response: %v", q.sql, err)
	}
	rows := out["rows"].([]any)
	if got := int64(rows[0].([]any)[0].(float64)); got != q.want {
		t.Errorf("%s: got %d, want %d", q.sql, got, q.want)
	}
	enc, _ := json.Marshal(rows)
	return string(enc)
}
