package dbstore

import (
	"math"
	"math/bits"
)

// HyperLogLog sketch for the "more advanced statistics such as the number
// of distinct elements" the paper says can be extracted during conversion
// (§3.3). 256 registers give a ~6.5% standard error — plenty for
// cardinality estimation — at 256 bytes per (chunk, column).

const (
	hllPrecision = 8 // 2^8 registers
	hllRegisters = 1 << hllPrecision
)

// HLL is a fixed-precision HyperLogLog sketch. The zero value is an empty
// sketch ready for use.
type HLL struct {
	reg [hllRegisters]uint8
}

// hash64 mixes a 64-bit value (SplitMix64 finalizer).
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString hashes bytes with FNV-1a then mixes.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return hash64(h)
}

// AddUint folds a hashed 64-bit value into the sketch.
func (h *HLL) AddUint(x uint64) { h.addHash(hash64(x)) }

// AddString folds a string value into the sketch.
func (h *HLL) AddString(s string) { h.addHash(hashString(s)) }

func (h *HLL) addHash(v uint64) {
	idx := v >> (64 - hllPrecision)
	rest := v << hllPrecision
	// Rank = leading zeros of the remaining bits + 1, capped at their number
	// (which a zero rest, 64 leading zeros, is capped to as well).
	rank := uint8(min(bits.LeadingZeros64(rest)+1, 64-hllPrecision))
	if rank > h.reg[idx] {
		h.reg[idx] = rank
	}
}

// Estimate returns the approximate number of distinct values added.
func (h *HLL) Estimate() int64 {
	const m = float64(hllRegisters)
	alpha := 0.7213 / (1 + 1.079/m)
	sum := 0.0
	zeros := 0
	for _, r := range h.reg {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	est := alpha * m * m / sum
	// Small-range correction (linear counting).
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	return int64(est + 0.5)
}
