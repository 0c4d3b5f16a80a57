package scanraw

import (
	"math/rand"
	"testing"
)

// TestFrontierProperty: whatever the arrival order — with duplicate offers,
// positions that never arrive and a non-zero start — every offered position
// at or above the start is yielded exactly once with its first value, in
// ascending order; Put releases exactly the prefix before the first missing
// position, and Drain the rest, still ascending.
func TestFrontierProperty(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start, span := rng.Intn(5), 1+rng.Intn(40)
		// Offers range from below the start (never released) to start+span;
		// roughly one position in six is never offered.
		offered := map[int]bool{}
		var arrivals []int
		for pos := start - 2; pos < start+span; pos++ {
			if pos < 0 || rng.Intn(6) == 0 {
				continue
			}
			offered[pos] = true
			for n := 1 + rng.Intn(3); n > 0; n-- {
				arrivals = append(arrivals, pos)
			}
		}
		rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
		firstGap := start
		for offered[firstGap] {
			firstGap++
		}

		f := NewFrontier[int](start)
		first := map[int]int{} // the value of a position's first offer
		var got []int
		yield := func(pos, v int) {
			if v != first[pos] {
				t.Fatalf("seed %d: position %d yielded value %d, first offered %d", seed, pos, v, first[pos])
			}
			if len(got) > 0 && pos <= got[len(got)-1] {
				t.Fatalf("seed %d: position %d yielded after %d", seed, pos, got[len(got)-1])
			}
			got = append(got, pos)
		}
		for i, pos := range arrivals {
			if _, dup := first[pos]; !dup {
				first[pos] = i
			}
			f.Put(pos, i, yield)
		}
		if f.Next() != firstGap || len(got) != firstGap-start {
			t.Fatalf("seed %d: Put released %v, frontier at %d; want exactly [%d,%d)", seed, got, f.Next(), start, firstGap)
		}
		f.Drain(yield)
		want := 0
		for pos := range offered {
			if pos >= start {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("seed %d: %d positions yielded, %d offered at or above start %d", seed, len(got), want, start)
		}
		if len(got) > 0 && got[0] < start {
			t.Fatalf("seed %d: position %d below start %d yielded", seed, got[0], start)
		}
		// A drained position is released: offering it again yields nothing.
		for pos := range offered {
			f.Put(pos, -1, func(pos, _ int) { t.Fatalf("seed %d: position %d yielded twice", seed, pos) })
		}
	}
}
