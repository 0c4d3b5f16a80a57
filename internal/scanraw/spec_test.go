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
// chunk whose unloaded columns sum the highest weight wins, ties keep scan
// (cache insertion) order, zero-weight columns are never written, a cold
// workload hands the quantum to scan order, and a column the cached copy
// does not hold is skipped.
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
		weights  []float64 // nil: no ColumnWeights
		chunks   []payoffChunk
		wantID   int // -1: no pick, the scan-order fallback
		wantCols []int
	}{
		{
			// Chunk 0's unloaded column 2 weighs more than either of chunk
			// 1's unloaded columns, but chunk 1's two sum higher: 2 + 2
			// beats 3.
			name: "weight times unloaded width", weights: []float64{2, 0, 3, 2},
			chunks: []payoffChunk{{id: 0, loaded: []int{0, 1, 3}}, {id: 1, loaded: []int{2}}},
			wantID: 1, wantCols: []int{0, 3},
		},
		{
			name: "highest sum of groups", weights: []float64{1, 0, 2, 0},
			chunks: []payoffChunk{{id: 0, loaded: []int{2, 3}}, {id: 1}, {id: 2, loaded: []int{2}}},
			wantID: 1, wantCols: []int{0, 2},
		},
		{
			name: "equal scores keep scan order", weights: []float64{1, 1, 1, 1},
			chunks: fresh(2, 0, 1),
			wantID: 2, wantCols: all,
		},
		{
			name: "zero-weight columns stay unwritten", weights: []float64{0, 4, 0, 5},
			chunks: []payoffChunk{{id: 0, loaded: []int{3}}, {id: 1}},
			wantID: 1, wantCols: []int{1, 3},
		},
		{
			name: "nothing wanted is unloaded", weights: []float64{0, 0, 0, 5},
			chunks: []payoffChunk{{id: 0, loaded: []int{3}}, {id: 1, loaded: []int{3}}},
			wantID: -1,
		},
		{name: "nil weights", chunks: fresh(0, 1), wantID: -1},
		{name: "wrong-width weights", weights: []float64{1, 1}, chunks: fresh(0, 1), wantID: -1},
		{name: "all-zero weights", weights: []float64{0, 0, 0, 0}, chunks: fresh(0, 1), wantID: -1},
		{
			// The chunks tie; chunk 0 comes first but its cached copy
			// holds only a zero-weight column, so chunk 1 writes the
			// wanted columns it holds.
			name: "partly held groups are skipped", weights: []float64{1, 0, 1, 1},
			chunks: []payoffChunk{{id: 0, holds: []int{1}}, {id: 1, holds: []int{0, 1, 2}}},
			wantID: 1, wantCols: []int{0, 2},
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
				if c.loaded != nil {
					if err := env.store.WriteChunkColumns(env.table, filled(c.id, all), c.loaded); err != nil {
						t.Fatal(err)
					}
				}
				holds := c.holds
				if holds == nil {
					holds = all
				}
				if _, ok := op.Cache().Put(filled(c.id, holds), false); !ok {
					t.Fatalf("cache refused chunk %d", c.id)
				}
			}
			r := &run{op: op}
			bc, cols, err := r.payoffPick()
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
				if bc.ID != tc.wantID || !reflect.DeepEqual(cols, tc.wantCols) {
					t.Errorf("picked chunk %d columns %v, want chunk %d columns %v", bc.ID, cols, tc.wantID, tc.wantCols)
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
