package cluster_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"scanraw/internal/gen"
)

// The distributed-merge overhead pair: the same GROUP BY aggregate served
// by one scanrawd versus a coordinator scattering it over a 3-worker
// fleet and merging the shipped partials. The ratio of the two (distributed
// / single-node) prices the codec + HTTP + merge-tree cost of going
// distributed on data small enough that scan time does not dominate.
const benchSQL = "SELECT c0, SUM(c1), COUNT(*) FROM data GROUP BY c0"

func benchQuery(b *testing.B, baseURL string) {
	b.Helper()
	resp, err := http.Post(baseURL+"/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"sql": %q}`, benchSQL)))
	if err != nil {
		b.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

func BenchmarkSingleNodeQuery(b *testing.B) {
	ref := newWorker(b, gen.Bytes(fleetSpec), 25)
	benchQuery(b, ref.ts.URL) // warm the binary cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchQuery(b, ref.ts.URL)
	}
}

func BenchmarkDistributedQuery(b *testing.B) {
	_, fc := replicatedFleet(b, 25)
	_, coTS := newCoordinator(b, fc, testClusterConfig())
	benchQuery(b, coTS.URL)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchQuery(b, coTS.URL)
	}
}
