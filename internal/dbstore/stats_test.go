package dbstore

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

func TestCollectStatsInt(t *testing.T) {
	v := chunk.NewVector(schema.Int64, 4)
	v.Ints = []int64{5, -3, 8, 0}
	s := CollectStats(v)
	if !s.Valid || s.MinInt != -3 || s.MaxInt != 8 {
		t.Errorf("stats = %+v", s)
	}
}

// Only integer columns carry statistics: nothing reads float or string
// bounds, so a Float64 or Str vector yields invalid, empty stats.
func TestCollectStatsFloat(t *testing.T) {
	v := chunk.NewVector(schema.Float64, 3)
	v.Floats = []float64{1.5, -0.5, 0}
	if s := CollectStats(v); s != (ColStats{}) {
		t.Errorf("stats = %+v, want none", s)
	}
}

func TestCollectStatsStr(t *testing.T) {
	v := chunk.NewVector(schema.Str, 3)
	v.Strs = []string{"m", "a", "z"}
	if s := CollectStats(v); s != (ColStats{}) {
		t.Errorf("stats = %+v, want none", s)
	}
}

func TestCollectStatsEmpty(t *testing.T) {
	v := chunk.NewVector(schema.Int64, 0)
	if s := CollectStats(v); s.Valid {
		t.Error("empty vector should yield invalid stats")
	}
}

func TestMayContainInt(t *testing.T) {
	v := chunk.NewVector(schema.Int64, 2)
	v.Ints = []int64{10, 20}
	s := CollectStats(v)
	cases := []struct {
		lo, hi int64
		want   bool
	}{
		{0, 5, false},
		{0, 10, true},
		{15, 17, true},
		{20, 30, true},
		{21, 30, false},
		{0, 100, true},
	}
	for _, c := range cases {
		if got := s.MayContainInt(c.lo, c.hi); got != c.want {
			t.Errorf("MayContainInt(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	// Invalid stats are conservative.
	if !(ColStats{}).MayContainInt(0, 0) {
		t.Error("invalid stats must conservatively return true")
	}
	// Wrong type is conservative.
	f := chunk.NewVector(schema.Float64, 1)
	if !CollectStats(f).MayContainInt(99, 100) {
		t.Error("wrong-typed stats must conservatively return true")
	}
}

// Property: every value in the vector is within [Min, Max], and
// MayContainInt never excludes a range containing an actual value.
func TestStatsSoundnessProperty(t *testing.T) {
	f := func(vals []int64, lo, hi int64) bool {
		if len(vals) == 0 {
			return true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		v := &chunk.Vector{Type: schema.Int64, Ints: vals}
		s := CollectStats(v)
		for _, x := range vals {
			if x < s.MinInt || x > s.MaxInt {
				return false
			}
			if x >= lo && x <= hi && !s.MayContainInt(lo, hi) {
				return false // unsound exclusion
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// collectStatsTwoPass is the reference CollectStats must equal field for
// field: the vector widened, then slices.Min and slices.Max over it.
func collectStatsTwoPass(v *chunk.Vector) ColStats {
	ints := v.Ints
	if v.Int32 != nil {
		ints = make([]int64, len(v.Int32))
		for i, x := range v.Int32 {
			ints[i] = int64(x)
		}
	}
	return ColStats{Valid: true, MinInt: slices.Min(ints), MaxInt: slices.Max(ints), Rows: int64(len(ints))}
}

func TestCollectStatsOnePassEqualsTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 8192} {
		wide := chunk.NewVector(schema.Int64, n)
		narrow := &chunk.Vector{Type: schema.Int64, Int32: make([]int32, n)}
		for i := 0; i < n; i++ {
			wide.Ints[i] = rng.Int63n(1<<20) - 1<<19
			narrow.Int32[i] = rng.Int31() - 1<<30
		}
		if n > 2 { // the extremes somewhere inside
			wide.Ints[n/3], wide.Ints[n/2] = math.MinInt64, math.MaxInt64
			narrow.Int32[n/3], narrow.Int32[n/2] = math.MinInt32, math.MaxInt32
		}
		for _, v := range []*chunk.Vector{wide, narrow} {
			if got, want := CollectStats(v), collectStatsTwoPass(v); got != want {
				t.Errorf("narrow=%v × %d: one pass %+v, two passes %+v", v.Int32 != nil, n, got, want)
			}
		}
	}
}

func TestEstimateRangeRows(t *testing.T) {
	_, tbl := newTestStore(t)
	// Two chunks of 100 rows: values uniform 0..99 and 100..199.
	for id := 0; id < 2; id++ {
		if err := tbl.EnsureChunk(id, 100, int64(id*1000), 1000); err != nil {
			t.Fatal(err)
		}
		v := chunk.NewVector(schema.Int64, 100)
		for i := range v.Ints {
			v.Ints[i] = int64(id*100 + i)
		}
		if err := tbl.SetChunkStats(id, []int{0}, []ColStats{CollectStats(v)}); err != nil {
			t.Fatal(err)
		}
	}
	est, total, err := tbl.EstimateRangeRows(0, 0, 49)
	if err != nil {
		t.Fatal(err)
	}
	if total != 200 {
		t.Errorf("total = %d", total)
	}
	// Half of chunk 0, none of chunk 1: ~50.
	if est < 40 || est > 60 {
		t.Errorf("estimate for [0,49] = %v, want ~50", est)
	}
	// Full range.
	est, _, _ = tbl.EstimateRangeRows(0, 0, 1000)
	if est != 200 {
		t.Errorf("full-range estimate = %v, want 200", est)
	}
	// Empty range.
	est, _, _ = tbl.EstimateRangeRows(0, 500, 600)
	if est != 0 {
		t.Errorf("out-of-range estimate = %v, want 0", est)
	}
	// Inverted bounds.
	est, _, _ = tbl.EstimateRangeRows(0, 10, 5)
	if est != 0 {
		t.Errorf("inverted-range estimate = %v", est)
	}
	// Bad column.
	if _, _, err := tbl.EstimateRangeRows(99, 0, 1); err == nil {
		t.Error("bad column should fail")
	}
}

func TestEstimateRangeRowsNoStats(t *testing.T) {
	_, tbl := newTestStore(t)
	if err := tbl.EnsureChunk(0, 100, 0, 1000); err != nil {
		t.Fatal(err)
	}
	// No stats: conservative full contribution.
	est, total, err := tbl.EstimateRangeRows(0, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if est != 100 || total != 100 {
		t.Errorf("no-stats estimate = %v/%v, want 100/100", est, total)
	}
}
