//go:build invariants

package kernel

import (
	"testing"

	"scanraw/internal/chunk"
)

// Failed conversions must return every acquired vector to the pool: the
// kernel grabs all output vectors up front, so each error return path
// owns len(cols) of them. Under the invariants build the pool gauge makes
// any leak observable.
func TestConvertErrorReleasesVectors(t *testing.T) {
	sch := intSchema(3)
	k, err := For(sch, []int{0, 1, 2}, ',')
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]*chunk.TextChunk{
		"data ends early": {ID: 1, Data: []byte("1,2,3\n"), Lines: 2},
		"short row":       {ID: 2, Data: []byte("1,2,3\n4,5\n"), Lines: 2},
		"bad value":       {ID: 3, Data: []byte("1,2,3\n4,x,6\n"), Lines: 2},
	} {
		t.Run(name, func(t *testing.T) {
			base := chunk.OutstandingVectors()
			if _, err := k.Convert(tc); err == nil {
				t.Fatal("malformed chunk converted without error")
			}
			if got := chunk.OutstandingVectors(); got != base {
				t.Errorf("vectors leaked: outstanding %d, want %d", got, base)
			}
		})
	}
}

// A successful conversion transfers ownership to the binary chunk;
// RecycleColumns must bring the gauge back to baseline.
func TestConvertRecycleBalances(t *testing.T) {
	sch := intSchema(2)
	k, err := For(sch, []int{0, 1}, ',')
	if err != nil {
		t.Fatal(err)
	}
	base := chunk.OutstandingVectors()
	bc, err := k.Convert(&chunk.TextChunk{Data: []byte("1,2\n3,4\n"), Lines: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := chunk.OutstandingVectors(); got != base+2 {
		t.Errorf("outstanding %d after convert, want %d", got, base+2)
	}
	bc.RecycleColumns()
	if got := chunk.OutstandingVectors(); got != base {
		t.Errorf("outstanding %d after recycle, want %d", got, base)
	}
}
