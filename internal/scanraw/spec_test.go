package scanraw

import (
	"reflect"
	"testing"

	"scanraw/internal/chunk"
)

// TestParsePolicyNames: every name a policy prints parses back to it (the
// /query stats report String(), and an operator copies what they see into
// a flag), the short flag spellings keep working, and junk is an error.
func TestParsePolicyNames(t *testing.T) {
	for _, p := range []WritePolicy{ExternalTables, FullLoad, BufferedLoad, Speculative, Invisible} {
		if got, err := ParseWritePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParseWritePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	for name, want := range map[string]WritePolicy{
		"external": ExternalTables, "fullload": FullLoad, "load": FullLoad,
		"buffered": BufferedLoad, "speculative": Speculative, "invisible": Invisible,
	} {
		if got, err := ParseWritePolicy(name); err != nil || got != want {
			t.Errorf("ParseWritePolicy(%q) = %v, %v", name, got, err)
		}
	}
	for _, p := range []SpecPolicy{SpecScan, SpecPayoff} {
		if got, err := ParseSpecPolicy(p.String()); err != nil || got != p {
			t.Errorf("ParseSpecPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	for _, bad := range []string{"", " ", "Speculative", "full load", "WritePolicy(9)"} {
		if _, err := ParseWritePolicy(bad); err == nil {
			t.Errorf("ParseWritePolicy(%q) should fail", bad)
		}
		if _, err := ParseSpecPolicy(bad); err == nil {
			t.Errorf("ParseSpecPolicy(%q) should fail", bad)
		}
	}
}

// payoffChunk is one cached chunk of a TestPayoffPick case: the columns its
// cached copy holds (nil: all four) and the columns already loaded.
type payoffChunk struct {
	id     int
	holds  []int
	loaded []int
}

// TestPayoffPick ranks a cache filled by hand, with no scan running: the
// chunk whose unloaded groups sum the highest weight × unloaded width wins,
// ties keep scan (cache insertion) order, zero-weight columns are never
// written, a cold workload hands the quantum to scan order, and a group the
// cached copy holds only part of is skipped.
func TestPayoffPick(t *testing.T) {
	all := []int{0, 1, 2, 3}
	fresh := func(ids ...int) []payoffChunk {
		var cs []payoffChunk
		for _, id := range ids {
			cs = append(cs, payoffChunk{id: id})
		}
		return cs
	}
	cases := []struct {
		name     string
		width    int
		weights  []float64 // nil: no ColumnWeights
		chunks   []payoffChunk
		wantID   int // -1: no pick, the scan-order fallback
		wantCols []int
		groups   int // groups the pick writes
	}{
		{
			// Chunk 0's unloaded column 2 weighs more than chunk 1's
			// columns 0 and 1 together, but chunk 1's group is twice as
			// wide: 2 × 2 beats 3 × 1.
			name: "weight times unloaded width", width: 2, weights: []float64{2, 0, 3, 0},
			chunks: []payoffChunk{{id: 0, loaded: []int{0, 1, 3}}, {id: 1, loaded: []int{2, 3}}},
			wantID: 1, wantCols: []int{0, 1}, groups: 1,
		},
		{
			name: "highest sum of groups", width: 2, weights: []float64{1, 0, 2, 0},
			chunks: []payoffChunk{{id: 0, loaded: []int{2, 3}}, {id: 1}, {id: 2, loaded: []int{3}}},
			wantID: 1, wantCols: all, groups: 2,
		},
		{
			name: "equal scores keep scan order", width: 1, weights: []float64{1, 1, 1, 1},
			chunks: fresh(2, 0, 1),
			wantID: 2, wantCols: all, groups: 4,
		},
		{
			name: "zero-weight columns stay unwritten", width: 1, weights: []float64{0, 4, 0, 5},
			chunks: []payoffChunk{{id: 0, loaded: []int{3}}, {id: 1}},
			wantID: 1, wantCols: []int{1, 3}, groups: 2,
		},
		{
			name: "nothing wanted is unloaded", width: 1, weights: []float64{0, 0, 0, 5},
			chunks: []payoffChunk{{id: 0, loaded: []int{3}}, {id: 1, loaded: []int{3}}},
			wantID: -1,
		},
		{name: "nil weights", width: 1, chunks: fresh(0, 1), wantID: -1},
		{name: "wrong-width weights", width: 1, weights: []float64{1, 1}, chunks: fresh(0, 1), wantID: -1},
		{name: "all-zero weights", width: 1, weights: []float64{0, 0, 0, 0}, chunks: fresh(0, 1), wantID: -1},
		{
			// Chunk 0 holds half of each group, chunk 1 all of the first
			// group and half of the second: only that one is writable.
			name: "partly held groups are skipped", width: 2, weights: []float64{1, 1, 1, 1},
			chunks: []payoffChunk{{id: 0, holds: []int{0, 2}}, {id: 1, holds: []int{0, 1, 2}}},
			wantID: 1, wantCols: []int{0, 1}, groups: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newEnv(t, 16, 4, nil)
			sch := env.table.Schema()
			filled := func(id int, cols []int) *BinaryChunk {
				bc := chunk.NewBinary(sch, id, 4)
				for _, c := range cols {
					v := chunk.NewVector(sch.Column(c).Type, 4)
					if err := bc.SetColumn(c, v); err != nil {
						t.Fatal(err)
					}
				}
				return bc
			}
			cfg := Config{Speculation: SpecPayoff}
			if tc.weights != nil {
				cfg.ColumnWeights = func() []float64 { return tc.weights }
			}
			op := New(env.store, env.table, cfg)
			for _, c := range tc.chunks {
				if err := env.table.EnsureChunk(c.id, 4, int64(c.id*100), 100); err != nil {
					t.Fatal(err)
				}
				// One-column groups, so any loaded set can be written.
				env.store.SetGroupWidth(1)
				if c.loaded != nil {
					if err := env.store.WriteChunkColumns(env.table, filled(c.id, all), c.loaded); err != nil {
						t.Fatal(err)
					}
				}
				holds := c.holds
				if holds == nil {
					holds = all
				}
				if _, _, ok := op.Cache().Put(filled(c.id, holds), false); !ok {
					t.Fatalf("cache refused chunk %d", c.id)
				}
			}
			env.store.SetGroupWidth(tc.width)
			r := &run{op: op}
			bc, cols, ngroups, err := r.payoffPick()
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.wantID < 0:
				if bc != nil {
					t.Errorf("picked chunk %d columns %v, want no pick", bc.ID, cols)
				}
			case bc == nil:
				t.Errorf("no pick, want chunk %d columns %v", tc.wantID, tc.wantCols)
			default:
				if bc.ID != tc.wantID || !reflect.DeepEqual(cols, tc.wantCols) || ngroups != tc.groups {
					t.Errorf("picked chunk %d columns %v in %d groups, want chunk %d columns %v in %d",
						bc.ID, cols, ngroups, tc.wantID, tc.wantCols, tc.groups)
				}
				if err := op.Cache().Unpin(bc.ID); err != nil {
					t.Fatal(err)
				}
			}
			if st := op.Cache().Stats(); st.PinCount != 0 {
				t.Errorf("%d pins left behind", st.PinCount)
			}
		})
	}
}
