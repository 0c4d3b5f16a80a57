package scanraw

import (
	"context"
	"strings"
	"testing"
)

func TestOrderAndRangeMutuallyExclusive(t *testing.T) {
	env := newEnv(t, 128, 2, nil)
	op := New(env.store, env.table, Config{ChunkLines: 64})
	_, err := op.Run(Request{
		Columns: []int{0},
		Range:   &ChunkRange{Lo: 0, Hi: 1},
		Order:   func(n int) []int { return revPerm(n) },
		Deliver: func(bc *BinaryChunk) error { return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("Order+Range err = %v", err)
	}
}

// revPerm is a tiny deterministic visit order (the real sampler lives in
// internal/ola, which imports this package).
func revPerm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = n - 1 - i
	}
	return out
}

func TestOrderMustBeValidPermutation(t *testing.T) {
	cases := []struct {
		name  string
		order func(n int) []int
	}{
		{"short", func(n int) []int { return make([]int, 0) }},
		{"out-of-range", func(n int) []int {
			out := revPerm(n)
			out[0] = n
			return out
		}},
		{"duplicate", func(n int) []int {
			out := revPerm(n)
			out[0] = out[1]
			return out
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := newEnv(t, 256, 2, nil)
			op := New(env.store, env.table, Config{ChunkLines: 64, Workers: 2})
			_, err := op.Run(Request{
				Columns: []int{0},
				Order:   c.order,
				Deliver: func(bc *BinaryChunk) error { return nil },
			})
			if err == nil || !strings.Contains(err.Error(), "visit order") {
				t.Fatalf("%s: err = %v", c.name, err)
			}
		})
	}
}

// TestOrderedScanVisitsInOrder drives a reverse-order scan through both
// execution modes. Sequential execution delivers strictly in the visit
// order; the pipeline issues chunks in visit order but delivers in
// conversion-completion order (consumers reorder, as the server's
// chunk-ID reorder buffer does), so there only coverage is asserted.
func TestOrderedScanVisitsInOrder(t *testing.T) {
	for _, workers := range []int{0, 3} {
		env := newEnv(t, 512, 2, nil)
		op := New(env.store, env.table, Config{ChunkLines: 64, Workers: workers, CacheChunks: 4})
		var got []int
		_, err := op.Run(Request{
			Columns: []int{0},
			Order:   func(n int) []int { return revPerm(n) },
			Deliver: func(bc *BinaryChunk) error {
				got = append(got, bc.ID)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := revPerm(env.table.NumChunks())
		if len(got) != len(want) {
			t.Fatalf("workers=%d: delivered %d chunks, want %d", workers, len(got), len(want))
		}
		if workers == 0 {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("delivery order %v, want %v", got, want)
				}
			}
		} else {
			seen := map[int]bool{}
			for _, id := range got {
				if seen[id] {
					t.Fatalf("chunk %d delivered twice: %v", id, got)
				}
				seen[id] = true
			}
		}
		if !env.table.Complete() {
			t.Errorf("workers=%d: ordered scan must complete discovery first", workers)
		}
	}
}

func TestSharedScanRejectsMultiMemberOrder(t *testing.T) {
	env := newEnv(t, 128, 2, nil)
	op := New(env.store, env.table, Config{ChunkLines: 64})
	mk := func(order func(int) []int) Request {
		return Request{
			Columns: []int{0},
			Order:   order,
			Deliver: func(bc *BinaryChunk) error { return nil },
		}
	}
	_, _, err := op.RunSharedContext(context.Background(), []Request{mk(func(n int) []int { return revPerm(n) }), mk(nil)})
	if err == nil || !strings.Contains(err.Error(), "cannot share") {
		t.Fatalf("multi-member ordered share err = %v", err)
	}
	// A solo ordered member passes through.
	if _, _, err := op.RunSharedContext(context.Background(), []Request{mk(func(n int) []int { return revPerm(n) })}); err != nil {
		t.Fatalf("solo ordered share: %v", err)
	}
}
