package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"scanraw/internal/scanraw"
)

// TestOrderedStreaming: ORDER BY queries stream over NDJSON, a header before
// the scan and the executor's rows after it; the streamed rows must match
// the materialized result exactly, including order and LIMIT.
func TestOrderedStreaming(t *testing.T) {
	env := newServerEnv(t, 1024, nil, Config{},
		scanraw.Config{Workers: 2, CacheChunks: 8})
	queries := []string{
		"SELECT c0, c1 FROM data ORDER BY c0 DESC, c1 LIMIT 25",
		"SELECT c0, c1 FROM data WHERE c2 < 300 ORDER BY c0",
		"SELECT c0, SUM(c1) AS s FROM data GROUP BY c0 ORDER BY s DESC LIMIT 5",
	}
	for _, sql := range queries {
		_, out := postQuery(t, env, fmt.Sprintf(`{"sql": %q}`, sql))
		want, _ := json.Marshal(out["rows"])

		resp, err := http.Post(env.ts.URL+"/query?stream=ndjson", "application/json",
			strings.NewReader(fmt.Sprintf(`{"sql": %q}`, sql)))
		if err != nil {
			t.Fatal(err)
		}
		rows, objs := readNDJSON(t, resp.Body)
		resp.Body.Close()
		if len(objs) != 2 {
			t.Fatalf("%s: want header + trailer, got %d objects: %v", sql, len(objs), objs)
		}
		if _, ok := objs[0]["columns"]; !ok {
			t.Errorf("%s: first line is not a columns header: %v", sql, objs[0])
		}
		if _, ok := objs[1]["stats"]; !ok {
			t.Errorf("%s: last line is not a stats trailer: %v", sql, objs[1])
		}
		got, _ := json.Marshal(rows)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: streamed rows differ from materialized\nstreamed:     %.300s\nmaterialized: %.300s",
				sql, got, want)
		}
		if len(rows) == 0 {
			t.Errorf("%s: streamed no rows", sql)
		}
	}
}

// TestTerminationMetrics: a LIMIT query served over many chunks terminates
// its scan early, and the /metrics counters record it.
//
// Whether a pipelined LIMIT stops early is up to the schedule: its proof
// needs chunk 0 consumed, and with several chunks in flight chunk 0 can be
// overtaken by all the others (DESIGN.md §16). The multi-slot configuration
// therefore asserts what holds either way — the counters say exactly what
// the reply's stats say — and the forced one (a one-chunk cache admits a
// conversion only once the previous chunk was consumed) that the scan did
// stop. A full scan first completes discovery: chunks_saved counts known
// chunks only.
func TestTerminationMetrics(t *testing.T) {
	t.Run("multi-slot", func(t *testing.T) { terminationMetrics(t, 8) })
	t.Run("forced", func(t *testing.T) { terminationMetrics(t, 1) })
}

func terminationMetrics(t *testing.T, cacheChunks int) {
	const chunks = 32 // of 64 lines
	env := newServerEnv(t, 2048, nil, Config{},
		scanraw.Config{Workers: 2, CacheChunks: cacheChunks})
	if status, out := postQuery(t, env, `{"sql": "SELECT COUNT(*) FROM data"}`); status != http.StatusOK {
		t.Fatalf("discovery scan: status = %d: %v", status, out)
	}
	status, out := postQuery(t, env, `{"sql": "SELECT c0, c1 FROM data LIMIT 5"}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %v", status, out)
	}
	if got := len(out["rows"].([]any)); got != 5 {
		t.Fatalf("rows = %d, want 5", got)
	}
	stats := out["stats"].(map[string]any)
	num := func(key string) int { v, _ := stats[key].(float64); return int(v) }
	te, _ := stats["terminated_early"].(bool)
	saved := num("chunks_saved")
	scanned := num("scan_chunks_cache") + num("scan_chunks_db") + num("scan_chunks_raw") + num("scan_chunks_partial")
	if saved != chunks-scanned || te != (saved > 0) {
		t.Errorf("terminated_early = %v, chunks_saved = %d with %d of %d chunks scanned (%v)",
			te, saved, scanned, chunks, stats)
	}
	if cacheChunks == 1 && !te {
		t.Errorf("stats.terminated_early = %v, want true (%v)", stats["terminated_early"], stats)
	}

	wantScans := 0
	if te {
		wantScans = 1
	}
	snap := env.srv.MetricsSnapshot()
	if snap.ScansTerminatedEarly != int64(wantScans) {
		t.Errorf("scans_terminated_early = %d, want %d", snap.ScansTerminatedEarly, wantScans)
	}
	if snap.ChunksSavedByTermination != int64(saved) {
		t.Errorf("chunks_saved_by_termination = %d, want %d", snap.ChunksSavedByTermination, saved)
	}
	resp, err := http.Get(env.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]int{"scans_terminated_early": wantScans, "chunks_saved_by_termination": saved} {
		if v, ok := m[key].(float64); !ok || int(v) != want {
			t.Errorf("/metrics %s = %v, want %d", key, m[key], want)
		}
	}
}

// TestCoalescerDemandAdmission is the regression test for the coalescing
// window guard: an unbounded query must not join a window whose members all
// carry termination signals (it would force their shared scan to
// end-of-file), so it dispatches alone — while bounded queries still
// coalesce with each other.
func TestCoalescerDemandAdmission(t *testing.T) {
	env := newServerEnv(t, 1024, nil,
		Config{MaxConcurrent: 8, CoalesceWindow: 400 * time.Millisecond},
		scanraw.Config{Workers: 2, CacheChunks: 8})

	// A bounded query opens a coalescing window and sits in it.
	type result struct {
		batch int
		err   error
	}
	limitDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(env.ts.URL+"/query", "application/json",
			strings.NewReader(`{"sql": "SELECT c0 FROM data LIMIT 5"}`))
		if err != nil {
			limitDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			limitDone <- result{err: err}
			return
		}
		if resp.StatusCode != http.StatusOK {
			limitDone <- result{err: fmt.Errorf("status %d: %v", resp.StatusCode, out)}
			return
		}
		limitDone <- result{batch: int(out["stats"].(map[string]any)["batch_size"].(float64))}
	}()
	time.Sleep(100 * time.Millisecond) // let the window open

	// The unbounded aggregate arrives mid-window: it must execute alone
	// instead of joining (and un-terminating) the bounded batch.
	start := time.Now()
	status, out := postQuery(t, env, fmt.Sprintf(`{"sql": %q}`, sumSQL))
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("aggregate status = %d: %v", status, out)
	}
	if got := firstValue(t, out); got != env.want {
		t.Errorf("aggregate sum = %d, want %d", got, env.want)
	}
	if bs := int(out["stats"].(map[string]any)["batch_size"].(float64)); bs != 1 {
		t.Errorf("aggregate batch_size = %d, want 1 (must not join the bounded window)", bs)
	}
	if elapsed >= 300*time.Millisecond {
		t.Errorf("aggregate waited %v, should have dispatched without the window", elapsed)
	}

	r := <-limitDone
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.batch != 1 {
		t.Errorf("bounded query batch_size = %d, want 1", r.batch)
	}
	snap := env.srv.MetricsSnapshot()
	if snap.PhysicalScans != 2 {
		t.Errorf("physical_scans = %d, want 2 (no coalescing across the demand boundary)", snap.PhysicalScans)
	}

	// Control: two bounded queries in one window still share a scan, and the
	// all-bounded shared scan terminates early.
	results := make(chan result, 2)
	for _, sql := range []string{"SELECT c0 FROM data LIMIT 5", "SELECT c1 FROM data LIMIT 7"} {
		go func(sql string) {
			resp, err := http.Post(env.ts.URL+"/query", "application/json",
				strings.NewReader(fmt.Sprintf(`{"sql": %q}`, sql)))
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			var out map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				results <- result{err: err}
				return
			}
			if resp.StatusCode != http.StatusOK {
				results <- result{err: fmt.Errorf("status %d: %v", resp.StatusCode, out)}
				return
			}
			results <- result{batch: int(out["stats"].(map[string]any)["batch_size"].(float64))}
		}(sql)
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.batch != 2 {
			t.Errorf("bounded pair batch_size = %d, want 2 (bounded queries still coalesce)", r.batch)
		}
	}
}
