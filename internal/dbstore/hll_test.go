package dbstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

func TestHLLExactSmall(t *testing.T) {
	var h HLL
	for i := 0; i < 10; i++ {
		h.AddUint(uint64(i))
	}
	est := h.Estimate()
	if est < 8 || est > 12 {
		t.Errorf("estimate for 10 distinct = %d", est)
	}
}

func TestHLLDuplicatesDoNotCount(t *testing.T) {
	var h HLL
	for i := 0; i < 10000; i++ {
		h.AddUint(uint64(i % 7))
	}
	est := h.Estimate()
	if est < 5 || est > 9 {
		t.Errorf("estimate for 7 distinct over 10000 adds = %d", est)
	}
}

func TestHLLAccuracyLarge(t *testing.T) {
	for _, n := range []int{1000, 10000, 100000} {
		var h HLL
		for i := 0; i < n; i++ {
			h.AddUint(uint64(i) * 2654435761)
		}
		est := float64(h.Estimate())
		rel := math.Abs(est-float64(n)) / float64(n)
		if rel > 0.25 {
			t.Errorf("n=%d: estimate %v off by %.1f%%", n, est, rel*100)
		}
	}
}

func TestHLLStrings(t *testing.T) {
	var h HLL
	for i := 0; i < 500; i++ {
		h.AddString(fmt.Sprintf("value-%d", i))
	}
	est := float64(h.Estimate())
	if est < 350 || est > 650 {
		t.Errorf("string estimate = %v, want ~500", est)
	}
}

func TestHLLEmpty(t *testing.T) {
	var h HLL
	if est := h.Estimate(); est != 0 {
		t.Errorf("empty sketch estimate = %d", est)
	}
}

func TestCollectStatsDistinct(t *testing.T) {
	v := chunk.NewVector(schema.Int64, 1000)
	for i := range v.Ints {
		v.Ints[i] = int64(i % 50)
	}
	s := CollectStats(v)
	if s.Rows != 1000 {
		t.Errorf("Rows = %d", s.Rows)
	}
	if s.Distinct < 40 || s.Distinct > 60 {
		t.Errorf("Distinct = %d, want ~50", s.Distinct)
	}
	// Distinct never exceeds row count.
	small := chunk.NewVector(schema.Str, 3)
	small.Strs = []string{"a", "b", "c"}
	if st := CollectStats(small); st.Distinct > st.Rows {
		t.Errorf("Distinct %d > Rows %d", st.Distinct, st.Rows)
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

// rankByShifting is addHash's rank as it was computed before it became one
// LeadingZeros64: shift the remaining bits out one at a time. Kept as the
// oracle — the registers, and with them every journaled Distinct, must not
// move.
func rankByShifting(v uint64) uint8 {
	rest := v << hllPrecision
	rank := uint8(1)
	for rest != 0 && rest&(1<<63) == 0 && rank < 64-hllPrecision {
		rank++
		rest <<= 1
	}
	if rest == 0 {
		rank = 64 - hllPrecision
	}
	return rank
}

func TestHLLRankMatchesShiftLoop(t *testing.T) {
	check := func(v uint64) {
		t.Helper()
		var h HLL
		h.addHash(v)
		if got, want := h.reg[v>>(64-hllPrecision)], rankByShifting(v); got != want {
			t.Fatalf("hash %#016x: rank %d, the shift loop gives %d", v, got, want)
		}
	}
	const fullIndex = uint64(hllRegisters-1) << (64 - hllPrecision)
	// No remaining bit set, under an empty and a full register index.
	check(0)
	check(fullIndex)
	for bit := 0; bit < 64; bit++ {
		one := uint64(1) << bit
		check(one)                // every single-bit pattern
		check(one - 1)            // all ones below it
		check(one | 1)            // with the lowest remaining bit
		check(one | one>>1)       // two adjacent bits
		check(^uint64(0) << bit)  // all ones from it up
		check(one | fullIndex)    // under a full index
		check(one>>1 | fullIndex) // bit == 0: index alone
	}
	// Around the cap: the lowest remaining bits, where the rank saturates.
	for v := uint64(0); v < 1<<12; v++ {
		check(v)
		check(v | 0xA5<<(64-hllPrecision))
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 1_000_000; i++ {
		check(rng.Uint64())
	}
}
