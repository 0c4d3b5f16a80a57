//go:build invariants

package dbstore

import (
	"testing"

	"scanraw/internal/chunk"
)

// TestFailedReadReturnsVectors: a read that fails after decoding some of its
// columns — the second page's checksum is wrong, or the segment ends inside
// it — hands every vector it took back to the pools; one that succeeds leaves
// exactly its columns outstanding until the chunk is recycled.
func TestFailedReadReturnsVectors(t *testing.T) {
	s, tbl := newTestStore(t)
	if err := tbl.EnsureChunk(0, 4, 0, 40); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteChunk(tbl, fullChunk(t, 0, 4)); err != nil {
		t.Fatal(err)
	}
	base := chunk.OutstandingVectors()
	bc, err := s.ReadChunk(tbl, 0, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := chunk.OutstandingVectors(); got != base+2 {
		t.Errorf("OutstandingVectors after a 2-column read = %d, want %d", got, base+2)
	}
	bc.RecycleColumns()
	if got := chunk.OutstandingVectors(); got != base {
		t.Errorf("OutstandingVectors after RecycleColumns = %d, want %d", got, base)
	}

	meta, _ := tbl.Chunk(0)
	g := meta.Groups[1]
	if len(g.Cols) != 1 || g.Cols[0] != 1 {
		t.Fatalf("second group = %+v, want column 1 alone", g)
	}
	name := segBlob("t", 0, g.Seg)
	good, err := s.Disk().ReadBlob(name)
	if err != nil {
		t.Fatal(err)
	}
	for what, damage := range map[string]func([]byte) []byte{
		"corrupt":   func(p []byte) []byte { p[g.Off+g.Len-1] ^= 0xFF; return p },
		"truncated": func(p []byte) []byte { return p[:g.Off+g.Len-1] },
	} {
		s.Disk().Preload(name, damage(append([]byte(nil), good...)))
		// Column 0's page precedes the damage and decodes before it is found.
		if _, err := s.ReadChunk(tbl, 0, []int{0, 1}); err == nil {
			t.Errorf("%s: read of a damaged page succeeded", what)
		}
		if got := chunk.OutstandingVectors(); got != base {
			t.Errorf("%s: OutstandingVectors after a failed read = %d, want %d", what, got, base)
		}
	}
}
