package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"scanraw/internal/scanraw"
)

// olaQuery POSTs a /query with OLA query parameters and returns the
// decoded JSON response.
func olaQuery(t *testing.T, env *serverEnv, sql, params string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(env.ts.URL+"/query?"+params, "application/json",
		strings.NewReader(fmt.Sprintf(`{"sql": %q}`, sql)))
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

// TestOLAErrorZeroExactJSON runs the sampled path with error=0 (no early
// termination allowed) and demands the answer be byte-identical to the
// plain path on every configuration the scan can take.
func TestOLAErrorZeroExactJSON(t *testing.T) {
	configs := []scanraw.Config{
		{Workers: 0, CacheChunks: 4}, // sequential
		{Workers: 4, CacheChunks: 8}, // pipeline
		{Workers: 2, CacheChunks: 8, Policy: scanraw.Speculative, Safeguard: true}, // speculative
	}
	queries := []string{
		sumSQL,
		"SELECT COUNT(*) FROM data WHERE c1 < 500",
		"SELECT c0, COUNT(*), SUM(c1), AVG(c2) FROM data GROUP BY c0",
	}
	for ci, opCfg := range configs {
		for _, sql := range queries {
			plain := newServerEnv(t, 512, nil, Config{}, opCfg)
			sampled := newServerEnv(t, 512, nil, Config{}, opCfg)
			_, want := postQuery(t, plain, fmt.Sprintf(`{"sql": %q}`, sql))
			status, got := olaQuery(t, sampled, sql, "error=0")
			if status != http.StatusOK {
				t.Fatalf("cfg %d %q: status = %d: %v", ci, sql, status, got)
			}
			if !reflect.DeepEqual(got["rows"], want["rows"]) {
				t.Errorf("cfg %d %q: sampled rows %v, want %v", ci, sql, got["rows"], want["rows"])
			}
			stats := got["stats"].(map[string]any)
			olaSt, ok := stats["ola"].(map[string]any)
			if !ok {
				t.Fatalf("cfg %d %q: stats carry no ola block: %v", ci, sql, stats)
			}
			if olaSt["exact"] != true {
				t.Errorf("cfg %d %q: error=0 scan not exact: %v", ci, sql, olaSt)
			}
			if olaSt["max_rel_error"].(float64) != 0 {
				t.Errorf("cfg %d %q: exact max_rel_error = %v", ci, sql, olaSt["max_rel_error"])
			}
		}
	}
}

// olaTwins are the configurations of a pipelined OLA test that asserts an
// early stop. With eight cache slots four workers can finish every chunk
// before the estimate converges, so only what holds under every schedule is
// asserted there; the stop itself is asserted on the forced twin (DESIGN.md
// §16), whose one slot admits a chunk only once the previous one was
// consumed, so at most two chunks outrun the converging one.
var olaTwins = []scanraw.Config{{Workers: 4, CacheChunks: 8}, {Workers: 4, CacheChunks: 1}}

// TestOLAEarlyTermination asks for a loose tolerance on a larger table:
// the estimate must carry a bound within tolerance, the ola metrics must
// record the query, and on the forced twin the scan must stop before
// end-of-file.
func TestOLAEarlyTermination(t *testing.T) {
	for _, cfg := range olaTwins {
		forced := cfg.CacheChunks == 1
		t.Run(fmt.Sprintf("cache=%d", cfg.CacheChunks), func(t *testing.T) {
			env := newServerEnv(t, 8192, nil, Config{}, cfg)
			status, out := olaQuery(t, env, sumSQL, "error=0.1&confidence=0.95&seed=7")
			if status != http.StatusOK {
				t.Fatalf("status = %d: %v", status, out)
			}
			stats := out["stats"].(map[string]any)
			olaSt, ok := stats["ola"].(map[string]any)
			if !ok {
				t.Fatalf("no ola stats: %v", stats)
			}
			sampled := int(olaSt["chunks_sampled"].(float64))
			total := int(olaSt["chunks_total"].(float64))
			if forced && !(sampled < total) {
				t.Fatalf("sampled %d of %d chunks: no early termination", sampled, total)
			}
			if olaSt["converged"] != true {
				t.Errorf("ola.converged = %v", olaSt["converged"])
			}
			if forced && stats["terminated_early"] != true {
				t.Errorf("stats.terminated_early = %v", stats["terminated_early"])
			}
			// Zero only for an exact answer: every chunk was sampled.
			if rel := olaSt["max_rel_error"].(float64); rel < 0 || rel > 0.1 || rel == 0 && sampled < total {
				t.Errorf("max_rel_error = %v after %d of %d chunks, want in (0, 0.1], or 0 for all", rel, sampled, total)
			}
			// The estimate itself should be in the right neighborhood: the 95%
			// interval can miss, but not by much at this tolerance.
			est := firstValue(t, out)
			lo, hi := float64(env.want)*0.8, float64(env.want)*1.2
			if f := float64(est); f < lo || f > hi {
				t.Errorf("estimate %d outside sanity range [%v, %v] (truth %d)", est, lo, hi, env.want)
			}

			snap := env.srv.MetricsSnapshot()
			if snap.OLAQueries < 1 {
				t.Errorf("OLAQueries = %d, want >= 1", snap.OLAQueries)
			}
			if snap.OLAChunksSampled < int64(sampled) {
				t.Errorf("OLAChunksSampled = %d, want >= %d", snap.OLAChunksSampled, sampled)
			}
			if forced && snap.OLAEarlyTerminations < 1 {
				t.Errorf("OLAEarlyTerminations = %d, want >= 1", snap.OLAEarlyTerminations)
			}

			// The /metrics endpoint surfaces the same counters end to end.
			resp, err := http.Get(env.ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var m map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
				t.Fatal(err)
			}
			want := map[string]int64{
				"ola_queries_total":      snap.OLAQueries,
				"ola_chunks_sampled":     snap.OLAChunksSampled,
				"ola_early_terminations": snap.OLAEarlyTerminations,
			}
			for key, n := range want {
				if v, ok := m[key].(float64); !ok || int64(v) != n {
					t.Errorf("/metrics %s = %v, want %d", key, m[key], n)
				}
			}
		})
	}
}

// TestOLAStreamConverges reads the NDJSON estimate stream: progress lines
// must carry monotonically shrinking max_rel_error, the final line must be
// flagged, and on the forced twin the stream must stop before the last
// chunk.
func TestOLAStreamConverges(t *testing.T) {
	for _, cfg := range olaTwins {
		forced := cfg.CacheChunks == 1
		t.Run(fmt.Sprintf("cache=%d", cfg.CacheChunks), func(t *testing.T) {
			env := newServerEnv(t, 8192, nil, Config{}, cfg)
			resp, err := http.Post(env.ts.URL+"/query?stream=ndjson&error=0.05&seed=3",
				"application/json", strings.NewReader(fmt.Sprintf(`{"sql": %q}`, sumSQL)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			_, objs := readNDJSON(t, resp.Body)
			if len(objs) < 3 {
				t.Fatalf("stream has %d object lines, want header + estimates + trailer", len(objs))
			}
			if _, ok := objs[0]["columns"]; !ok {
				t.Fatalf("first line is not a columns header: %v", objs[0])
			}
			if _, ok := objs[len(objs)-1]["stats"]; !ok {
				t.Fatalf("last line is not a stats trailer: %v", objs[len(objs)-1])
			}
			var (
				estimates []map[string]any
				finals    int
			)
			for _, o := range objs[1 : len(objs)-1] {
				if _, ok := o["final"]; !ok {
					t.Fatalf("unexpected stream line: %v", o)
				}
				estimates = append(estimates, o)
				if o["final"] == true {
					finals++
				}
			}
			if len(estimates) < 2 {
				t.Fatalf("only %d estimate lines; the stream should converge over several", len(estimates))
			}
			if finals != 1 || estimates[len(estimates)-1]["final"] != true {
				t.Fatalf("want exactly one final line, at the end; got %d", finals)
			}
			prev := -1.0
			for i, e := range estimates[:len(estimates)-1] {
				rel, ok := e["max_rel_error"].(float64)
				if !ok {
					continue // null: bound not formed yet
				}
				if prev >= 0 && rel >= prev {
					t.Errorf("line %d: max_rel_error %v did not shrink from %v", i, rel, prev)
				}
				prev = rel
			}
			final := estimates[len(estimates)-1]
			if rel, ok := final["max_rel_error"].(float64); !ok || rel > 0.05 {
				t.Errorf("final max_rel_error = %v, want <= 0.05", final["max_rel_error"])
			}
			if sampled := final["chunks_sampled"].(float64); forced && sampled >= final["chunks_total"].(float64) {
				t.Errorf("stream sampled every chunk (%v of %v): no early termination", sampled, final["chunks_total"])
			}
		})
	}
}

// TestOLAStreamExactMatchesPlain compares the error=0 NDJSON final line
// against the plain aggregate NDJSON row.
func TestOLAStreamExactMatchesPlain(t *testing.T) {
	env := newServerEnv(t, 1024, nil, Config{}, scanraw.Config{Workers: 2, CacheChunks: 8})
	sql := "SELECT c0, SUM(c1), COUNT(*) FROM data GROUP BY c0"
	body := fmt.Sprintf(`{"sql": %q}`, sql)

	plainResp, err := http.Post(env.ts.URL+"/query?stream=ndjson", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	plainRows, _ := readNDJSON(t, plainResp.Body)
	plainResp.Body.Close()

	olaResp, err := http.Post(env.ts.URL+"/query?stream=ndjson&error=0", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer olaResp.Body.Close()
	_, objs := readNDJSON(t, olaResp.Body)
	var final map[string]any
	for _, o := range objs {
		if o["final"] == true {
			final = o
		}
	}
	if final == nil {
		t.Fatalf("no final line in stream: %v", objs)
	}
	gotRows, _ := json.Marshal(final["rows"])
	wantRows, _ := json.Marshal(plainRows)
	if string(gotRows) != string(wantRows) {
		t.Errorf("error=0 stream rows %s, want %s", gotRows, wantRows)
	}
	for _, brow := range final["bounds"].([]any) {
		for _, b := range brow.([]any) {
			if b.(float64) != 0 {
				t.Errorf("exact final line has nonzero bound %v", b)
			}
		}
	}
}

// TestOLAParamValidation covers the request-surface contract: explicit
// ?error= on an ineligible query is a 400, as are malformed parameters;
// a server-wide default silently falls back to the plain path.
func TestOLAParamValidation(t *testing.T) {
	env := newServerEnv(t, 256, nil, Config{}, scanraw.Config{Workers: 2})
	cases := []struct {
		sql, params string
	}{
		{"SELECT c0, c1 FROM data", "error=0.01"},                          // not an aggregate
		{"SELECT SUM(c0) FROM data GROUP BY c1 ORDER BY c1", "error=0.01"}, // ORDER BY
		{sumSQL, "error=nope"},
		{sumSQL, "error=-0.5"},
		{sumSQL, "error=0.01&confidence=1.5"},
		{sumSQL, "error=0.01&seed=x"},
	}
	for _, c := range cases {
		status, out := olaQuery(t, env, c.sql, c.params)
		if status != http.StatusBadRequest {
			t.Errorf("%q ?%s: status = %d, want 400 (%v)", c.sql, c.params, status, out)
		}
	}

	// A server default tolerance leaves ineligible queries on the plain
	// path — and runs eligible ones sampled without any query parameter.
	defEnv := newServerEnv(t, 256, nil, Config{OLAError: 0.2}, scanraw.Config{Workers: 2})
	status, out := olaQuery(t, defEnv, "SELECT c0, c1 FROM data WHERE c0 > 990", "")
	if status != http.StatusOK {
		t.Fatalf("ineligible query under server default: status = %d: %v", status, out)
	}
	if _, ok := out["stats"].(map[string]any)["ola"]; ok {
		t.Errorf("ineligible query grew ola stats: %v", out["stats"])
	}
	status, out = olaQuery(t, defEnv, sumSQL, "")
	if status != http.StatusOK {
		t.Fatalf("eligible query under server default: status = %d: %v", status, out)
	}
	if _, ok := out["stats"].(map[string]any)["ola"]; !ok {
		t.Errorf("server default did not engage OLA: %v", out["stats"])
	}
}
