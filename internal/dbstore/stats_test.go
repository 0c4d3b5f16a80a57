package dbstore

import (
	"fmt"
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

func TestCollectStatsFloat(t *testing.T) {
	v := chunk.NewVector(schema.Float64, 3)
	v.Floats = []float64{1.5, -0.5, 0}
	s := CollectStats(v)
	if !s.Valid || s.MinFloat != -0.5 || s.MaxFloat != 1.5 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCollectStatsStr(t *testing.T) {
	v := chunk.NewVector(schema.Str, 3)
	v.Strs = []string{"m", "a", "z"}
	s := CollectStats(v)
	if !s.Valid || s.MinStr != "a" || s.MaxStr != "z" {
		t.Errorf("stats = %+v", s)
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

// collectStatsTwoPass is CollectStats as it ran before the passes were
// fused — the sketch over the whole vector, then min and max over it again —
// kept as the reference the one-pass version must equal field for field.
func collectStatsTwoPass(v *chunk.Vector) ColStats {
	s := ColStats{Type: v.Type, Valid: true, Rows: int64(v.Len())}
	var hll HLL
	switch v.Type {
	case schema.Int64:
		for _, x := range v.Ints {
			hll.AddUint(uint64(x))
		}
		s.MinInt, s.MaxInt = slices.Min(v.Ints), slices.Max(v.Ints)
	case schema.Float64:
		for _, x := range v.Floats {
			hll.AddUint(math.Float64bits(x))
		}
		s.MinFloat, s.MaxFloat = v.Floats[0], v.Floats[0]
		for _, x := range v.Floats[1:] { // not slices.Min: a NaN must not propagate
			if x < s.MinFloat {
				s.MinFloat = x
			}
			if x > s.MaxFloat {
				s.MaxFloat = x
			}
		}
	case schema.Str:
		for _, x := range v.Strs {
			hll.AddString(x)
		}
		s.MinStr, s.MaxStr = slices.Min(v.Strs), slices.Max(v.Strs)
	}
	s.Distinct = min(hll.Estimate(), s.Rows)
	return s
}

func TestCollectStatsOnePassEqualsTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 8192} {
		ints := chunk.NewVector(schema.Int64, n)
		floats := chunk.NewVector(schema.Float64, n)
		strs := chunk.NewVector(schema.Str, n)
		for i := 0; i < n; i++ {
			ints.Ints[i] = rng.Int63n(1<<20) - 1<<19
			floats.Floats[i] = rng.NormFloat64() * 1e6
			strs.Strs[i] = fmt.Sprintf("r%05d", rng.Intn(3000))
		}
		if n > 2 { // the extremes, a NaN and both zeros somewhere inside
			ints.Ints[n/3], ints.Ints[n/2] = math.MinInt64, math.MaxInt64
			floats.Floats[n/3], floats.Floats[n/2] = math.NaN(), math.Inf(-1)
			floats.Floats[n/4], floats.Floats[n/5] = 0, math.Copysign(0, -1)
			strs.Strs[n/3] = ""
		}
		for _, v := range []*chunk.Vector{ints, floats, strs} {
			got, want := CollectStats(v), collectStatsTwoPass(v)
			// Bit patterns, so that a NaN or a signed zero compares.
			gotBits := [2]uint64{math.Float64bits(got.MinFloat), math.Float64bits(got.MaxFloat)}
			wantBits := [2]uint64{math.Float64bits(want.MinFloat), math.Float64bits(want.MaxFloat)}
			got.MinFloat, got.MaxFloat, want.MinFloat, want.MaxFloat = 0, 0, 0, 0
			if got != want || gotBits != wantBits {
				t.Errorf("%v × %d: one pass %+v %x, two passes %+v %x", v.Type, n, got, gotBits, want, wantBits)
			}
		}
	}
	// A NaN first stays the minimum and the maximum: nothing compares below
	// or above it.
	nanFirst := &chunk.Vector{Type: schema.Float64, Floats: []float64{math.NaN(), 1, -1}}
	if s := CollectStats(nanFirst); !math.IsNaN(s.MinFloat) || !math.IsNaN(s.MaxFloat) {
		t.Errorf("NaN-first vector: min %v max %v, want NaN as the two-pass loop left it", s.MinFloat, s.MaxFloat)
	}
}
