package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"scanraw/internal/scanraw"
)

// The benchmark harness (its own module under benchmark/) decodes a few
// keys of the daemon's replies: replyStats in benchmark/client.go from
// every /query reply's stats (the JSON body or the NDJSON trailer), and
// daemonMetrics and tableStatus in benchmark/daemon.go from /metrics and
// /tables. A rename on this side decodes as a silent zero there, so the
// keys are pinned here, where `make check` sees them.
var harnessKeys = map[string][]string{
	"stats": {"scan_chunks_raw", "scan_chunks_partial"},
	"metrics": {
		"queries_total", "rejected_total", "coalesced_queries_total",
		"worker_busy_percent", "disk_busy_percent",
		"chunks_delivered.cache", "chunks_delivered.db", "chunks_delivered.raw", "chunks_delivered.partial",
		"store_chunks_recovered",
	},
	"tables": {"fully_loaded"},
}

// TestHarnessKeys: every key the harness reads is in the replies, as a JSON
// number (a bool for fully_loaded).
func TestHarnessKeys(t *testing.T) {
	env := newServerEnv(t, 256, nil, Config{}, scanraw.Config{Workers: 2, CacheChunks: 8})
	check := func(what string, doc map[string]any, keys []string) {
		t.Helper()
		for _, key := range keys {
			var v any = doc
			for _, part := range strings.Split(key, ".") {
				m, _ := v.(map[string]any)
				v = m[part]
			}
			_, num := v.(float64)
			_, flag := v.(bool)
			if !num && !(flag && key == "fully_loaded") {
				t.Errorf("%s: %q is %#v, not what the harness decodes", what, key, v)
			}
		}
	}
	body := fmt.Sprintf(`{"sql": %q}`, sumSQL)
	status, out := postQuery(t, env, body)
	if status != http.StatusOK {
		t.Fatalf("query: status %d: %v", status, out)
	}
	stats, _ := out["stats"].(map[string]any)
	check("/query stats", stats, harnessKeys["stats"])

	resp, err := http.Post(env.ts.URL+"/query?stream=ndjson", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, objs := readNDJSON(t, resp.Body)
	resp.Body.Close()
	if len(objs) == 0 {
		t.Fatal("NDJSON reply carried no trailer")
	}
	trailer, _ := objs[len(objs)-1]["stats"].(map[string]any)
	check("/query NDJSON trailer", trailer, harnessKeys["stats"])

	check("/metrics", metricsSnapshot(t, env), harnessKeys["metrics"])

	resp, err = http.Get(env.ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tables []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&tables); err != nil || len(tables) != 1 {
		t.Fatalf("/tables: %v, %d tables, want 1", err, len(tables))
	}
	check("/tables", tables[0], harnessKeys["tables"])
}
