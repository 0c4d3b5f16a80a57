package ola

import (
	"math"
	"math/rand"
	"testing"

	"scanraw/internal/engine"
	"scanraw/internal/schema"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustNew(
		schema.Column{Name: "c0", Type: schema.Int64},
		schema.Column{Name: "c1", Type: schema.Int64},
	)
}

func parseQ(t *testing.T, sql string) *engine.Query {
	t.Helper()
	q, err := engine.ParseSQL(sql, testSchema(t))
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return q
}

func TestEligible(t *testing.T) {
	cases := []struct {
		sql string
		ok  bool
	}{
		{"SELECT COUNT(*) FROM data", true},
		{"SELECT SUM(c0) FROM data", true},
		{"SELECT AVG(c0) FROM data WHERE c1 > 10", true},
		{"SELECT c1, COUNT(*), SUM(c0) FROM data GROUP BY c1", true},
		{"SELECT c0 FROM data", false},                                   // not aggregate
		{"SELECT MIN(c0) FROM data", false},                              // extreme value
		{"SELECT MAX(c0) FROM data", false},                              // extreme value
		{"SELECT SUM(c0) FROM data LIMIT 1", false},                      // limit
		{"SELECT c1, SUM(c0) FROM data GROUP BY c1 ORDER BY 2", false},   // order by
		{"SELECT c1, SUM(c0) FROM data GROUP BY c1 HAVING 2 > 5", false}, // having
	}
	for _, c := range cases {
		err := Eligible(parseQ(t, c.sql))
		if (err == nil) != c.ok {
			t.Errorf("%s: eligible err = %v, want ok=%v", c.sql, err, c.ok)
		}
	}
}

// scalarAgg builds the per-chunk snapshot of a scalar aggregate query
// with one select item.
func scalarAgg(count, sumInt int64) []engine.GroupAgg {
	return []engine.GroupAgg{{
		Key:  "",
		Aggs: []engine.AggSnapshot{{Count: count, SumInt: sumInt}},
	}}
}

// TestCoverageSum runs the satellite's statistical-coverage suite for
// the expansion estimator: 200 seeded trials over a fixed synthetic
// population, each sampling a prefix of a fresh permutation; the 95%
// interval must contain the true total in at least 93% of trials.
func TestCoverageSum(t *testing.T) {
	const (
		N      = 400
		sample = 90
		trials = 200
	)
	q := parseQ(t, "SELECT SUM(c0) FROM data")
	// Fixed population: per-chunk sums with moderate skew so the CLT has
	// something to do but the sample prefix stays in its regime.
	rng := rand.New(rand.NewSource(99))
	vals := make([]int64, N)
	var truth int64
	for i := range vals {
		vals[i] = rng.Int63n(2000) + int64(i%5)*700
		truth += vals[i]
	}
	hits := 0
	for trial := 0; trial < trials; trial++ {
		e, err := NewEstimator(q, Config{})
		if err != nil {
			t.Fatal(err)
		}
		e.SetTotalChunks(N)
		perm := Permutation(N, int64(trial))
		for _, id := range perm[:sample] {
			e.Observe(scalarAgg(100, vals[id]))
		}
		snap := e.Snapshot()
		est := snap.Groups[0].Values[0].Float
		half := snap.Groups[0].Bounds[0]
		if math.Abs(est-float64(truth)) <= half {
			hits++
		}
	}
	if hits < 186 { // 93% of 200
		t.Fatalf("95%% interval covered the truth in only %d/%d trials", hits, trials)
	}
	t.Logf("coverage: %d/%d trials", hits, trials)
}

// TestCoverageAvg covers the ratio estimator: per-chunk counts vary, so
// AVG is a quotient of two random totals and its bound comes from the
// delta method.
func TestCoverageAvg(t *testing.T) {
	const (
		N      = 400
		sample = 90
		trials = 200
	)
	q := parseQ(t, "SELECT AVG(c0) FROM data")
	rng := rand.New(rand.NewSource(7))
	counts := make([]int64, N)
	sums := make([]int64, N)
	var totCount, totSum int64
	for i := range counts {
		counts[i] = 50 + rng.Int63n(100)
		sums[i] = counts[i] * (200 + rng.Int63n(600))
		totCount += counts[i]
		totSum += sums[i]
	}
	truth := float64(totSum) / float64(totCount)
	hits := 0
	for trial := 0; trial < trials; trial++ {
		e, err := NewEstimator(q, Config{})
		if err != nil {
			t.Fatal(err)
		}
		e.SetTotalChunks(N)
		perm := Permutation(N, int64(1000+trial))
		for _, id := range perm[:sample] {
			e.Observe(scalarAgg(counts[id], sums[id]))
		}
		snap := e.Snapshot()
		est := snap.Groups[0].Values[0].Float
		half := snap.Groups[0].Bounds[0]
		if math.Abs(est-truth) <= half {
			hits++
		}
	}
	if hits < 186 {
		t.Fatalf("95%% interval covered the truth in only %d/%d trials", hits, trials)
	}
	t.Logf("coverage: %d/%d trials", hits, trials)
}

// TestCoverageGrouped covers per-group intervals: 200 trials × 3 groups
// of COUNT estimates, counted as 600 independent intervals.
func TestCoverageGrouped(t *testing.T) {
	const (
		N      = 400
		sample = 90
		trials = 200
		groups = 3
	)
	q := parseQ(t, "SELECT c1, COUNT(*) FROM data GROUP BY c1")
	rng := rand.New(rand.NewSource(21))
	// counts[g][i]: group g's row count in chunk i. Group 2 is sparse —
	// absent from most chunks — to exercise the implicit-zero path.
	counts := make([][]int64, groups)
	truth := make([]int64, groups)
	for g := range counts {
		counts[g] = make([]int64, N)
		for i := range counts[g] {
			switch g {
			case 2:
				if rng.Intn(4) == 0 {
					counts[g][i] = rng.Int63n(40)
				}
			default:
				counts[g][i] = 20 + rng.Int63n(80)
			}
			truth[g] += counts[g][i]
		}
	}
	keyOf := []string{"a", "b", "c"}
	hits, total := 0, 0
	for trial := 0; trial < trials; trial++ {
		e, err := NewEstimator(q, Config{})
		if err != nil {
			t.Fatal(err)
		}
		e.SetTotalChunks(N)
		perm := Permutation(N, int64(5000+trial))
		for _, id := range perm[:sample] {
			var gas []engine.GroupAgg
			for g := 0; g < groups; g++ {
				if counts[g][id] == 0 {
					continue // group absent from this chunk
				}
				gas = append(gas, engine.GroupAgg{
					Key:  keyOf[g],
					Keys: []engine.Value{engine.IntValue(int64(g))},
					Aggs: []engine.AggSnapshot{{}, {Count: counts[g][id]}},
				})
			}
			e.Observe(gas)
		}
		snap := e.Snapshot()
		for _, ge := range snap.Groups {
			g := int(ge.Values[0].Int)
			total++
			if math.Abs(ge.Values[1].Float-float64(truth[g])) <= ge.Bounds[1] {
				hits++
			}
		}
	}
	if total < trials*groups-trials/4 {
		// Sanity: sampled a quarter of the chunks with group 2 in ~25% of them —
		// it should appear in essentially every trial.
		t.Fatalf("only %d intervals produced, want close to %d", total, trials*groups)
	}
	if hits*100 < total*93 {
		t.Fatalf("intervals covered the truth in only %d/%d cases", hits, total)
	}
	t.Logf("coverage: %d/%d intervals", hits, total)
}

// TestFullScanExactZeroWidth: observing every chunk drives the FPC — and
// with it every bound — to exactly zero, and the estimate to the truth.
func TestFullScanExactZeroWidth(t *testing.T) {
	const N = 64
	q := parseQ(t, "SELECT SUM(c0) FROM data")
	e, err := NewEstimator(q, Config{}) // tolerance zero: never converge
	if err != nil {
		t.Fatal(err)
	}
	e.SetTotalChunks(N)
	rng := rand.New(rand.NewSource(3))
	var truth int64
	for range Permutation(N, 11) {
		v := rng.Int63n(10000)
		truth += v
		e.Observe(scalarAgg(10, v))
	}
	snap := e.Snapshot()
	if snap.Converged {
		t.Error("tolerance 0 must never converge")
	}
	if got := snap.Groups[0].Bounds[0]; got != 0 {
		t.Errorf("full-scan bound = %v, want exactly 0", got)
	}
	if snap.MaxRel != 0 {
		t.Errorf("full-scan MaxRel = %v, want 0", snap.MaxRel)
	}
	est := snap.Groups[0].Values[0].Float
	if rel := math.Abs(est-float64(truth)) / float64(truth); rel > 1e-9 {
		t.Errorf("full-scan estimate %v vs truth %d (rel %v)", est, truth, rel)
	}
}

// TestMinChunksFloor: even an absurdly loose tolerance must not converge
// before DefaultMinChunks observations.
func TestMinChunksFloor(t *testing.T) {
	q := parseQ(t, "SELECT SUM(c0) FROM data")
	e, err := NewEstimator(q, Config{Tolerance: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	e.SetTotalChunks(1000)
	for i := 0; i < 15; i++ {
		e.Observe(scalarAgg(10, 500))
		if snap := e.Snapshot(); snap.Converged {
			t.Fatalf("converged after %d chunks, floor is 16", i+1)
		}
	}
	e.Observe(scalarAgg(10, 500))
	if snap := e.Snapshot(); !snap.Converged {
		t.Fatal("16 constant chunks under tolerance 1e9 must converge")
	}
}

// TestConvergenceLatches: once declared, convergence survives later
// observations that would widen the bound.
func TestConvergenceLatches(t *testing.T) {
	q := parseQ(t, "SELECT SUM(c0) FROM data")
	e, err := NewEstimator(q, Config{Tolerance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	e.SetTotalChunks(10000)
	for i := 0; i < 20; i++ {
		e.Observe(scalarAgg(10, 1000)) // zero variance: converges at the floor
	}
	if !e.Snapshot().Converged {
		t.Fatal("constant sample must converge")
	}
	e.Observe(scalarAgg(10, 1e15)) // massive outlier blows the bound up
	snap := e.Snapshot()
	if snap.MaxRel <= 0.05 {
		t.Fatalf("outlier should have widened the bound, MaxRel = %v", snap.MaxRel)
	}
	if !snap.Converged {
		t.Fatal("convergence must latch")
	}
}

// TestBoundsShrink: with a stationary population the relative bound at a
// large sample is tighter than at a small one.
func TestBoundsShrink(t *testing.T) {
	const N = 500
	q := parseQ(t, "SELECT SUM(c0) FROM data")
	e, err := NewEstimator(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.SetTotalChunks(N)
	rng := rand.New(rand.NewSource(17))
	var relAt20 float64
	for i := 0; i < N; i++ {
		e.Observe(scalarAgg(10, rng.Int63n(5000)))
		if i+1 == 20 {
			relAt20 = e.Snapshot().MaxRel
		}
	}
	relEnd := e.Snapshot().MaxRel
	if !(relEnd < relAt20) {
		t.Fatalf("MaxRel did not shrink: %v at 20 chunks, %v at %d", relAt20, relEnd, N)
	}
}

// TestZeroMatchCount: a scalar COUNT over chunks with no matching rows
// estimates 0 with a zero-width bound and converges at the floor — the
// pre-created scalar group keeps zero-match samples estimable.
func TestZeroMatchCount(t *testing.T) {
	q := parseQ(t, "SELECT COUNT(*) FROM data WHERE c0 < 0")
	e, err := NewEstimator(q, Config{Tolerance: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	e.SetTotalChunks(1 << 20)
	for i := 0; i < DefaultMinChunks; i++ {
		e.Observe(nil) // chunk matched nothing: no groups at all
	}
	snap := e.Snapshot()
	if len(snap.Groups) != 1 {
		t.Fatalf("scalar query groups = %d, want 1", len(snap.Groups))
	}
	if est := snap.Groups[0].Values[0].Float; est != 0 {
		t.Errorf("estimate = %v, want 0", est)
	}
	if half := snap.Groups[0].Bounds[0]; half != 0 {
		t.Errorf("bound = %v, want 0", half)
	}
	if !snap.Converged {
		t.Error("zero-variance sample at the floor must converge")
	}
}

// TestConfidenceWidensBound: a higher confidence level yields a wider
// interval on identical data.
func TestConfidenceWidensBound(t *testing.T) {
	q := parseQ(t, "SELECT SUM(c0) FROM data")
	mk := func(conf float64) float64 {
		e, err := NewEstimator(q, Config{Confidence: conf})
		if err != nil {
			t.Fatal(err)
		}
		e.SetTotalChunks(1000)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 40; i++ {
			e.Observe(scalarAgg(10, rng.Int63n(3000)))
		}
		return e.Snapshot().Groups[0].Bounds[0]
	}
	if b95, b99 := mk(0.95), mk(0.99); !(b99 > b95) {
		t.Fatalf("99%% bound %v not wider than 95%% bound %v", b99, b95)
	}
}

func TestNewEstimatorRejects(t *testing.T) {
	q := parseQ(t, "SELECT SUM(c0) FROM data")
	if _, err := NewEstimator(q, Config{Confidence: 1.5}); err == nil {
		t.Error("confidence 1.5 accepted")
	}
	if _, err := NewEstimator(parseQ(t, "SELECT MIN(c0) FROM data"), Config{}); err == nil {
		t.Error("MIN accepted")
	}
}
