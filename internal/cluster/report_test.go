package cluster_test

import (
	"net/http"
	"testing"

	"scanraw/internal/cluster"
	"scanraw/internal/gen"
	"scanraw/internal/scanraw"
)

// scanBlock is the part of a /query stats block that accounts for the scan.
var scanBlock = []string{
	"scan_chunks_cache", "scan_chunks_db", "scan_chunks_raw", "scan_chunks_partial",
	"chunks_delivered", "chunks_skipped", "chunks_loaded", "terminated_early", "chunks_saved",
}

// TestScanReportDifferential: a coordinator over one peer that owns the whole
// table reports the scan block a single daemon reports for the same sequence
// of queries — the shard's report crosses the wire and is summed without
// losing a field. The policy writes during the scan, so chunks_loaded is
// non-zero; the inline driver (no workers) makes each scan's accounting a
// function of the sequence alone.
func TestScanReportDifferential(t *testing.T) {
	csv := gen.Bytes(fleetSpec)
	opCfg := scanraw.Config{ChunkLines: 25, CacheChunks: 4, Policy: scanraw.FullLoad}
	ref := newWorkerCfg(t, csv, opCfg)
	peer := newWorkerCfg(t, csv, opCfg)
	_, coTS := newCoordinator(t, cluster.FleetConfig{
		Peers:  []cluster.PeerConfig{{Addr: peer.addr(), Owns: []cluster.OwnConfig{{Table: "data"}}}},
		Tables: map[string]cluster.TableConfig{"data": {Schema: fleetSchema}},
	}, testClusterConfig())

	steps := []struct {
		name, sql string
		check     func(st map[string]any) bool
	}{
		// Cold: every chunk converted from raw and loaded, c0's page.
		{"cold", "SELECT SUM(c0) FROM data", func(st map[string]any) bool {
			return st["scan_chunks_raw"] == 24.0 && st["chunks_loaded"] == 24.0
		}},
		// Partly loaded: c0 comes from pages, c3 from raw.
		{"partial", "SELECT SUM(c0+c3) FROM data", func(st map[string]any) bool {
			return st["scan_chunks_partial"].(float64) > 0 && st["chunks_loaded"].(float64) > 0
		}},
		// LIMIT: the scan stops once the first chunk proves the result.
		{"limit", "SELECT c0, c1 FROM data LIMIT 5", func(st map[string]any) bool {
			return st["terminated_early"] == true
		}},
	}
	for _, s := range steps {
		refStatus, want := postWire(t, ref.ts.URL, s.sql)
		coStatus, got := postWire(t, coTS.URL, s.sql)
		if refStatus != http.StatusOK || coStatus != http.StatusOK {
			t.Fatalf("%s: status %d (%s) / coordinator %d (%s)", s.name, refStatus, want.Error, coStatus, got.Error)
		}
		if !s.check(want.Stats) {
			t.Errorf("%s: the daemon's scan is not the one this step exercises: %v", s.name, want.Stats)
		}
		for _, k := range scanBlock {
			if got.Stats[k] != want.Stats[k] {
				t.Errorf("%s: %s = %v from the coordinator, %v from the daemon", s.name, k, got.Stats[k], want.Stats[k])
			}
		}
		// What either side loaded is on its pages before the next step.
		for _, w := range []*workerEnv{ref, peer} {
			if op, ok := w.srv.Operator("data"); ok {
				op.WaitIdle()
			}
		}
	}
}
