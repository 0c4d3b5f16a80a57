package dbstore

import (
	"math"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// ColStats holds the minimum/maximum statistics SCANRAW collects for one
// column of one chunk while data are converted to the database
// representation (paper §3.3, "Query optimization"). They serve two
// purposes: skipping chunks that cannot satisfy a selection predicate, and
// cardinality estimation.
type ColStats struct {
	// Valid reports whether statistics were ever collected for the column
	// (i.e. the column has been converted at least once).
	Valid bool
	Type  schema.Type

	MinInt   int64
	MaxInt   int64
	MinFloat float64
	MaxFloat float64
	MinStr   string
	MaxStr   string

	// Rows is the number of values the statistics cover.
	Rows int64
	// Distinct is the estimated number of distinct values (HyperLogLog,
	// §3.3 "more advanced statistics such as the number of distinct
	// elements ... can be also extracted during the conversion stage").
	// Zero means not collected.
	Distinct int64
}

// CollectStats computes min/max, row-count and distinct-count statistics
// over a vector in one pass: each value is compared and folded into the
// sketch while it is in a register. A narrow Int64 vector is read through a
// widened copy. An empty vector yields invalid stats.
func CollectStats(v *chunk.Vector) ColStats {
	s := ColStats{Type: v.Type}
	if v.Len() == 0 {
		return s
	}
	s.Valid = true
	s.Rows = int64(v.Len())
	var hll HLL
	switch v.Type {
	case schema.Int64:
		ints, wide := chunk.Widen(v)
		defer chunk.PutVector(wide)
		lo, hi := ints[0], ints[0]
		for _, x := range ints {
			hll.AddUint(uint64(x))
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		s.MinInt, s.MaxInt = lo, hi
	case schema.Float64:
		lo, hi := v.Floats[0], v.Floats[0]
		for _, x := range v.Floats {
			hll.AddUint(math.Float64bits(x))
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		s.MinFloat, s.MaxFloat = lo, hi
	case schema.Str:
		lo, hi := v.Strs[0], v.Strs[0]
		for _, x := range v.Strs {
			hll.AddString(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		s.MinStr, s.MaxStr = lo, hi
	}
	s.Distinct = min(hll.Estimate(), s.Rows)
	return s
}

// MayContainInt reports whether a value in [lo, hi] could appear in the
// column, according to the statistics. Chunks whose stats exclude the range
// can be skipped without reading (paper §3.2.1, READ thread optimization:
// "chunks can be ignored altogether if the selection predicate cannot be
// satisfied by any tuple in the chunk"). Invalid stats conservatively
// return true.
func (s ColStats) MayContainInt(lo, hi int64) bool {
	if !s.Valid || s.Type != schema.Int64 {
		return true
	}
	return s.MaxInt >= lo && s.MinInt <= hi
}

// MayContainFloat is the float analogue of MayContainInt.
func (s ColStats) MayContainFloat(lo, hi float64) bool {
	if !s.Valid || s.Type != schema.Float64 {
		return true
	}
	return s.MaxFloat >= lo && s.MinFloat <= hi
}

// estimateOverlap estimates how many of the column's rows fall in [lo, hi]
// under a uniform-distribution assumption between the observed min/max —
// the classic textbook interpolation the paper's catalog statistics feed
// (§3.3, cardinality estimation).
func (s ColStats) estimateOverlap(lo, hi int64) float64 {
	if !s.Valid || s.Type != schema.Int64 {
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
