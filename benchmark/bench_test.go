package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"scanraw/internal/engine"
	"scanraw/internal/gen"
	"scanraw/internal/sam"
	"scanraw/internal/tok"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

func TestPercentileAndTailEligibility(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := percentile(xs, 99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("p99 = %v, want 99.01", got)
	}
	// Ten samples must lie beyond a reported tail percentile.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{999, 99, false}, {1000, 99, true}, {199, 95, false}, {200, 95, true}, {100, 90, true}, {99, 90, false}} {
		if got := tailEligible(c.n, c.p); got != c.want {
			t.Errorf("tailEligible(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := highestTail(250, 90, 95, 99); got != 95 {
		t.Errorf("highestTail(250) = %v, want 95", got)
	}
	if got := highestTail(50, 90, 95, 99); got != 0 {
		t.Errorf("highestTail(50) = %v, want none", got)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got := quartileSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if got := quartileSpread([]float64{8, 1, 4, 2}); math.Abs(got-5.75/3) > 1e-12 {
		t.Errorf("four-value spread = %v, want 5.75/3", got)
	}
	// Below four values the quartiles would be extrapolated: the range is used.
	if got := quartileSpread([]float64{10, 12}); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("two-value spread = %v, want 2/11", got)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "replay.S1", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "kernel.Convert", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "dbstore.Write", Start: 30, End: 60}, // overlaps span 1
		{ID: 3, Parent: 0, Name: "engine.Consume", Start: 70, End: 120},
		{ID: 4, Parent: 2, Name: "store.WriteBlob", Start: 35, End: 55},
	}
	self := selfTimes(spans)
	// Children cover [10,60] and [70,100] (clipped to the parent): 80 of 100.
	if self[0] != 20 {
		t.Errorf("root self time = %d, want 20", self[0])
	}
	if self[2] != 10 {
		t.Errorf("span 2 self time = %d, want 30-20 = 10", self[2])
	}
	shares := budgetOf(spans, func(s span) bool { return s.Name == "replay.S1" })
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if shares["unattributed"] != 0.2 || shares["store"] != 0.2 {
		t.Errorf("shares = %v, want unattributed 0.2 and store 0.2", shares)
	}
	// Overlapping siblings are each charged their own self time, so a budget
	// over concurrent spans may exceed 1; the serial replay never overlaps.
	if total < 1 {
		t.Errorf("shares sum to %v, want >= 1", total)
	}
}

func TestBudgetOfSerialSpansSumsToOne(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "replay.S1", Start: 0, End: 1000},
		{ID: 1, Parent: 0, Name: "store.ReadAt", Start: 5, End: 105},
		{ID: 2, Parent: 0, Name: "kernel.Convert", Start: 110, End: 610},
		{ID: 3, Parent: 0, Name: "dbstore.WriteChunkColumns", Start: 620, End: 990},
		{ID: 4, Parent: -1, Name: "scanraw.ExecuteQuery", Start: 1000, End: 5000}, // not a replay root
	}
	shares := budgetOf(spans, func(s span) bool { return s.Name == "replay.S1" })
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1: %v", total, shares)
	}
	if math.Abs(shares["unattributed"]-0.03) > 1e-12 {
		t.Errorf("unattributed = %v, want 0.03", shares["unattributed"])
	}
}

func sqlOf(pool map[string][]*query) []string {
	var out []string
	for _, class := range mixClasses {
		for _, q := range pool[class] {
			out = append(out, q.id())
		}
	}
	return out
}

func TestSameSeedSameQueries(t *testing.T) {
	spec := gen.CSVSpec{Rows: 500, Cols: 16, Seed: 9}
	a, b, c := warmMixPool(spec, 9), warmMixPool(spec, 9), warmMixPool(spec, 10)
	if !reflect.DeepEqual(sqlOf(a), sqlOf(b)) {
		t.Error("the same seed generated different statements")
	}
	if reflect.DeepEqual(sqlOf(a), sqlOf(c)) {
		t.Error("different seeds generated the same statements")
	}
	walk := func(pool map[string][]*query, seed int64, client int) []string {
		d := newDrawer(seed, client, mixClasses, pool)
		var out []string
		for i := 0; i < 200; i++ {
			out = append(out, d.next().id())
		}
		return out
	}
	if !reflect.DeepEqual(walk(a, 9, 0), walk(b, 9, 0)) {
		t.Error("the same seed walked the pool in a different order")
	}
	if reflect.DeepEqual(walk(a, 9, 0), walk(a, 9, 1)) {
		t.Error("two clients walked the pool in the same order")
	}
	sa, sb := streamPool(spec, 9), streamPool(spec, 9)
	for i := range sa {
		if sa[i].id() != sb[i].id() || sa[i].rows != sb[i].rows {
			t.Errorf("stream statement %d differs between two generations of one seed", i)
		}
	}
}

// engineRows answers q with the engine over ds in process, and passes the
// result through the server's JSON shape and the client's decoder, so the
// comparison below is the one a live reply gets.
func engineRows(t *testing.T, ds *dataset, q *query) [][]any {
	t.Helper()
	sch := ds.schema()
	parsed, err := engine.ParseSQL(q.sql, sch)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := engine.NewExecutor(parsed, sch)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := tok.SplitChunks(ds.data, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range chunks {
		bc, err := convertChunk(sch, parsed.RequiredColumns(), ds.delim(), tc)
		if err != nil {
			t.Fatal(err)
		}
		if err := ex.Consume(bc); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ex.Result()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = jsonRow(row)
	}
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var decoded [][]any
	if err := decodeCells(data, &decoded); err != nil {
		t.Fatal(err)
	}
	return decoded
}

func TestOracleAgreesWithEngineOnTinyData(t *testing.T) {
	ints := &dataset{name: "tiny", csv: &gen.CSVSpec{Rows: 1500, Cols: 16, Seed: 3}}
	ints.materialize()
	s := *ints.csv
	queries := []*query{
		sumQuery("S1", s, colRange(0, 12)),
		sumQuery("S3", s, colRange(0, 16)),
		filterCountQuery(s, 2, 9, maxValue/10),
		groupByQuery(s, 5),
		topKQuery(s, 7, 10),
		limitQuery(s, 1, 4, 100),
		olaQuery(s, 6, 0.01, 1),
		streamQuery(s, 8, maxValue/4),
	}
	reads := &dataset{name: "tinysam", samSpec: &sam.Spec{Reads: 1500, Seed: 3}}
	reads.materialize()
	ref, err := scanSAM(reads.data)
	if err != nil {
		t.Fatal(err)
	}
	samQueries := []*query{samLikeQuery("S1", ref), samGroupQuery(ref)}

	check := func(ds *dataset, q *query) {
		got := engineRows(t, ds, q)
		if len(got) != q.rows {
			t.Errorf("%s: engine returned %d rows, oracle expects %d", q.sql, len(got), q.rows)
		}
		if err := compareRows(got, q.want(), q.unordered, q.tol); err != nil {
			t.Errorf("%s: %v", q.sql, err)
		}
	}
	for _, q := range queries {
		check(ints, q)
	}
	for _, q := range samQueries {
		check(reads, q)
	}

	// The comparer must reject a wrong answer, or the checks above prove nothing.
	wrong := sumQuery("S1", s, colRange(0, 12))
	got := engineRows(t, ints, wrong)
	want := wrong.want()
	want[0][0] = want[0][0].(int64) + 1
	if compareRows(got, want, false, 0) == nil {
		t.Error("compareRows accepted a sum that is off by one")
	}
	if compareRows(got[:0], want, false, 0) == nil {
		t.Error("compareRows accepted a missing row")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d          metricDef
		base, cand []float64
		want       verdict
	}{
		{lower, []float64{99, 100, 101}, []float64{104, 105, 106}, withinBound},
		{lower, []float64{99, 100, 101}, []float64{89, 90, 91}, withinBound}, // better is never a regression
		{lower, []float64{99, 100, 101}, []float64{119, 120, 121}, regressed},
		// A spread wider than the bound resolves nothing, whichever way the
		// medians point: not a regression, and not "unchanged" either.
		{lower, []float64{85, 100, 115}, []float64{105, 120, 135}, unresolved},
		{lower, []float64{85, 100, 115}, []float64{86, 101, 116}, unresolved},
		{lower, []float64{99, 100, 101}, []float64{85, 100, 115}, unresolved},
		// ... unless every candidate run beats every baseline run.
		{lower, []float64{85, 100, 115}, []float64{60, 70, 80}, withinBound},
		{higher, []float64{99, 100, 101}, []float64{94, 95, 96}, withinBound},
		{higher, []float64{99, 100, 101}, []float64{79, 80, 81}, regressed},
		{higher, []float64{70, 100, 130}, []float64{131, 140, 190}, withinBound},
		{higher, []float64{70, 100, 130}, []float64{129, 140, 190}, unresolved},
	} {
		if got := judge(c.d, c.base, c.cand); got.verdict != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s (worse by %.2f, spread %.2f), want %s",
				c.d.Name, c.base, c.cand, got.verdict, got.worse, got.spread, c.want)
		}
	}
}

// TestWarmupRepliesAreChecked: the first reply to a statement is the only one
// compared in full, and it usually arrives during the warm-up. A wrong one
// there must still fail the run, even when every later reply is right.
func TestWarmupRepliesAreChecked(t *testing.T) {
	spec := gen.CSVSpec{Rows: 500, Cols: 16, Seed: 4}
	q := sumQuery("agg", spec, []int{1, 2}).prepare()
	right := q.want()[0][0].(int64)
	// Wrong for the first third of the warm-up, whichever client asks: the
	// clients race to the server, and the one whose reply is compared in full
	// need not be the first to be served.
	wrongUntil := time.Now().Add(50 * time.Millisecond)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sum := right
		if time.Now().Before(wrongUntil) {
			sum++ // same row count, wrong content: only the full check sees it
		}
		fmt.Fprintf(w, `{"columns":["sum"],"rows":[[%d]],"stats":{}}`, sum)
	}))
	defer srv.Close()

	res := newResult("loop")
	sm := loopSamples{byClass: map[string][]timed{}}
	pool := map[string][]*query{"agg": {q}}
	closedLoop(context.Background(), srv.URL, 1, []string{"agg"}, pool, 150*time.Millisecond, 100*time.Millisecond, res, &sm)
	if res.Failed != 1 {
		t.Errorf("%d failed of %d attempted, want the one wrong warm-up reply to fail: %v", res.Failed, res.Attempted, res.Failures)
	}
	if len(sm.lat) == 0 || len(sm.lat) >= res.Attempted {
		t.Errorf("%d latency samples of %d replies, want the measured window's only", len(sm.lat), res.Attempted)
	}
}

// TestHostMeterSlowdown: the slowdown of an interval is the mean kernel time
// of the samples in it (one period either side) over the run's floor, and an
// interval no sample fell into takes its neighbours.
func TestHostMeterSlowdown(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(sec float64) time.Time { return t0.Add(time.Duration(sec * float64(time.Second))) }
	m := &hostMeter{floor: 0.005}
	// Quiet for two seconds, a neighbour on the core for two, quiet again; no
	// sample between 2.0 and 2.6 s.
	for i := 0; i < 60; i++ {
		sec := float64(i) / 10
		k := 0.005
		if sec >= 2 && sec < 4 {
			k = 0.008
		}
		if sec >= 2 && sec < 2.6 {
			continue
		}
		m.samples = append(m.samples, meterSample{at(sec), k})
	}
	for _, c := range []struct {
		from, to, want float64
	}{
		{0.5, 1.5, 1},     // all quiet
		{2.8, 3.6, 1.6},   // all slowed
		{1.05, 1.06, 1},   // shorter than a period: the samples around it
		{2.25, 2.35, 1.3}, // in the gap: the nearest sample on either side (1.9 s quiet, 2.6 s slowed)
		{3.45, 4.55, 1.3}, // half and half: samples 3.4 .. 4.6
	} {
		if got := m.slowdown(at(c.from), at(c.to)); math.Abs(got-c.want) > 0.03 {
			t.Errorf("slowdown(%.2f s, %.2f s) = %.3f, want %.2f", c.from, c.to, got, c.want)
		}
	}
	if got := m.quiet(timed{at(2.8), 800 * time.Millisecond}); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("quiet(0.8 s at a slowdown of 1.6) = %v s, want 0.5", got)
	}
}

// TestHostMeterRuns: the live meter takes its prelude, keeps sampling, and
// reports a slowdown of at least 1 over its own lifetime.
func TestHostMeterRuns(t *testing.T) {
	start := time.Now()
	m, err := startHostMeter()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(250 * time.Millisecond)
	m.close()
	m.close() // a second close is a no-op
	if want := len(m.probes) * meterPrelude; len(m.probes) == 0 || len(m.samples) <= want {
		t.Fatalf("%d samples from %d cores, want the preludes (%d) and more", len(m.samples), len(m.probes), want)
	}
	if got := m.slowdown(start, time.Now()); got < 1 || got > 5 {
		t.Errorf("slowdown over the meter's own lifetime = %v, want at least 1 and not absurd", got)
	}
}

// benchmarkJSON is the shape of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runSeconds is the --seconds the driver passes (BENCHMARK.json's
// run_seconds): what the bounds in the table were sized at.
const runSeconds = 20

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var want benchmarkJSON
	want.Command = []string{"bash", "benchmark/run.sh"}
	want.Paths = []string{"benchmark"}
	want.RunSeconds = runSeconds
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		want.EndToEnd = append(want.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{d.Name, d.Unit, d.Better, d.Bound})
	}
	seen := map[string]bool{}
	for _, d := range perLayer {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("per-layer metric %q (unit %q) is repeated or too long", d.Name, d.Unit)
		}
		seen[d.Name] = true
		want.PerLayer = append(want.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{d.Name, d.Unit, d.Better})
	}
	if len(want.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(want.PerLayer))
	}
	const path = "../BENCHMARK.json"
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json does not match the tables in metrics.go and workloads.go; run go test -run TestBenchmarkJSON -update")
	}
}
