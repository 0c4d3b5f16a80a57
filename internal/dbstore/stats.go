package dbstore

import (
	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// ColStats holds the minimum/maximum statistics SCANRAW collects for one
// integer column of one chunk while data are converted to the database
// representation (paper §3.3, "Query optimization"). They serve two
// purposes: skipping chunks that cannot satisfy a selection predicate (and
// top-k chunks behind the current bound), and cardinality estimation. Only
// Int64 columns carry them: nothing reads float or string bounds, and the
// distinct count the paper says "can be also extracted" is not collected.
type ColStats struct {
	// Valid reports whether statistics were ever collected for the column
	// (i.e. it is an Int64 column converted at least once).
	Valid bool

	MinInt int64
	MaxInt int64

	// Rows is the number of values the statistics cover.
	Rows int64
}

// CollectStats computes min/max and row-count statistics over an Int64
// vector in one pass, reading a narrow vector at its own width. An empty or
// non-integer vector yields invalid stats.
func CollectStats(v *chunk.Vector) ColStats {
	if v.Type != schema.Int64 || v.Len() == 0 {
		return ColStats{}
	}
	s := ColStats{Valid: true, Rows: int64(v.Len())}
	if v.Int32 != nil {
		lo, hi := minMax(v.Int32)
		s.MinInt, s.MaxInt = int64(lo), int64(hi)
	} else {
		s.MinInt, s.MaxInt = minMax(v.Ints)
	}
	return s
}

// minMax returns the smallest and largest element of a non-empty slice.
func minMax[T int32 | int64](xs []T) (lo, hi T) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// MayContainInt reports whether a value in [lo, hi] could appear in the
// column, according to the statistics. Chunks whose stats exclude the range
// can be skipped without reading (paper §3.2.1, READ thread optimization:
// "chunks can be ignored altogether if the selection predicate cannot be
// satisfied by any tuple in the chunk"). Invalid stats conservatively
// return true.
func (s ColStats) MayContainInt(lo, hi int64) bool {
	if !s.Valid {
		return true
	}
	return s.MaxInt >= lo && s.MinInt <= hi
}

// estimateOverlap estimates how many of the column's rows fall in [lo, hi]
// under a uniform-distribution assumption between the observed min/max —
// the classic textbook interpolation the paper's catalog statistics feed
// (§3.3, cardinality estimation).
func (s ColStats) estimateOverlap(lo, hi int64) float64 {
	if !s.Valid {
		return float64(s.Rows) // unknown: assume everything qualifies
	}
	if hi < s.MinInt || lo > s.MaxInt {
		return 0
	}
	if lo <= s.MinInt && hi >= s.MaxInt {
		return float64(s.Rows)
	}
	span := float64(s.MaxInt-s.MinInt) + 1
	clampedLo, clampedHi := lo, hi
	if clampedLo < s.MinInt {
		clampedLo = s.MinInt
	}
	if clampedHi > s.MaxInt {
		clampedHi = s.MaxInt
	}
	frac := (float64(clampedHi-clampedLo) + 1) / span
	return frac * float64(s.Rows)
}
