package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// The group-resolver differential suite: every query runs through the
// resolver NewPartial picks for its key shape and through the generic one
// (canonical key bytes → ordinal, what every query used before the typed
// resolvers existed), and the two must agree on the serialized partial byte
// for byte and on the Result — so must any Merge between them, in either
// direction, and a round trip over the wire.

var groupSch = schema.MustNew(
	schema.Column{Name: "k", Type: schema.Int64},
	schema.Column{Name: "v", Type: schema.Int64},
	schema.Column{Name: "f", Type: schema.Float64},
	schema.Column{Name: "s", Type: schema.Str},
)

// groupChunks builds nc chunks whose int key column takes its values from
// keys (drawn at random, so repeats and fresh keys interleave) and whose
// string key column from strs, in runs of random length. Floats are
// multiples of 0.25 with an occasional NaN, ±Inf and -0.
func groupChunks(t testing.TB, rng *rand.Rand, nc, rows int, keys []int64, strs []string) []*chunk.BinaryChunk {
	t.Helper()
	out := make([]*chunk.BinaryChunk, nc)
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for id := range out {
		n := rows - rng.Intn(rows/2+1)
		k, v := chunk.NewVector(schema.Int64, n), chunk.NewVector(schema.Int64, n)
		f, s := chunk.NewVector(schema.Float64, n), chunk.NewVector(schema.Str, n)
		run, cur := 0, ""
		for r := 0; r < n; r++ {
			k.Ints[r] = keys[rng.Intn(len(keys))]
			v.Ints[r] = int64(rng.Intn(2001) - 1000)
			f.Floats[r] = float64(rng.Intn(4000)-2000) * 0.25
			if rng.Intn(50) == 0 {
				f.Floats[r] = odd[rng.Intn(len(odd))]
			}
			if run == 0 {
				run, cur = 1+rng.Intn(6), strs[rng.Intn(len(strs))]
			}
			s.Strs[r] = cur
			run--
		}
		bc := chunk.NewBinary(groupSch, id, n)
		for i, vec := range []*chunk.Vector{k, v, f, s} {
			if err := bc.SetColumn(i, vec); err != nil {
				t.Fatal(err)
			}
		}
		out[id] = bc
	}
	return out
}

// intKeySets are the int key populations the int resolver must get right:
// small and negative values, the int64 extremes, a sequential run, narrow
// keys joined by a far one, and power-of-two strides (keys that differ only
// in high bits).
func intKeySets() map[string][]int64 {
	sets := map[string][]int64{
		"small":    {0, 1, -1, 2, -2, 7, 16, -16},
		"extremes": {math.MinInt64, math.MaxInt64, 0, -1, math.MinInt64 + 1, math.MaxInt64 - 1},
	}
	// Mostly narrow, with a far key drawn now and then: the direct index
	// gives way to the slots part way through the first chunk.
	for i := int64(0); i < 40; i++ {
		sets["narrow-then-far"] = append(sets["narrow-then-far"], i-8)
	}
	sets["narrow-then-far"] = append(sets["narrow-then-far"], 1<<33)
	for i := int64(0); i < 300; i++ {
		sets["sequential"] = append(sets["sequential"], i-150)
		sets["stride-2^20"] = append(sets["stride-2^20"], (i-150)<<20)
		sets["stride-2^40"] = append(sets["stride-2^40"], (i-150)<<40)
		sets["stride-2^56"] = append(sets["stride-2^56"], i<<56)
	}
	return sets
}

var groupStrs = []string{"", "chr1", "chr2", "chr10", "chrX", "a\x00b", "héllo 世界", "*"}

// groupQueries covers every resolver (bare int key, int expression, string
// key, float key, composite and mixed keys, no key) under every aggregate
// over every input type, with selections that keep some rows, all or none.
var groupQueries = []string{
	"SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t GROUP BY k",
	"SELECT k, SUM(f), MIN(f), MAX(f), AVG(f), MIN(s), MAX(s), COUNT(s) FROM t GROUP BY k",
	"SELECT k % 16, COUNT(k), SUM(k) FROM t GROUP BY k % 16",
	"SELECT v % 7, k + v, COUNT(*) FROM t GROUP BY v % 7, k + v",
	"SELECT k, SUM(v) FROM t WHERE v < 0 GROUP BY k",
	"SELECT k, SUM(v) FROM t WHERE v > 5000 GROUP BY k",
	"SELECT s, COUNT(*), SUM(v), AVG(f), MIN(s), MAX(f) FROM t GROUP BY s",
	"SELECT s, MIN(v), MAX(v) FROM t WHERE f >= 0.0 GROUP BY s",
	"SELECT f, COUNT(*), SUM(v) FROM t GROUP BY f",
	"SELECT s, k, COUNT(*), SUM(f) FROM t GROUP BY s, k",
	"SELECT k, f, s, MAX(v) FROM t WHERE v % 3 = 0 GROUP BY k, f, s",
	"SELECT k, COUNT(*) AS n FROM t GROUP BY k HAVING n > 2 ORDER BY n DESC, k LIMIT 5",
	"SELECT COUNT(*), SUM(v), MIN(f), MAX(s), AVG(v) FROM t",
	"SELECT SUM(v), COUNT(f) FROM t WHERE v > 5000",
}

// feedGroups consumes chunks, in the order given, into a partial with the
// chosen or the generic resolver.
func feedGroups(t testing.TB, q *Query, chunks []*chunk.BinaryChunk, generic bool) *Partial {
	t.Helper()
	p, err := newPartial(q, groupSch, generic)
	if err != nil {
		t.Fatal(err)
	}
	for _, bc := range chunks {
		if _, err := p.ConsumeCounted(bc); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func mustEncode(t testing.TB, p *Partial) []byte {
	t.Helper()
	data, err := EncodePartial(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustResult(t testing.TB, p *Partial) *Result {
	t.Helper()
	res, err := p.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResult compares results cell by cell with floats by bits, so a NaN
// matches itself and -0 does not match +0.
func sameResult(a, b *Result) bool {
	if !reflect.DeepEqual(a.Cols, b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j, x := range a.Rows[i] {
			y := b.Rows[i][j]
			if x.Typ != y.Typ || x.Int != y.Int || x.Str != y.Str || math.Float64bits(x.Float) != math.Float64bits(y.Float) {
				return false
			}
		}
	}
	return true
}

func shuffled(rng *rand.Rand, chunks []*chunk.BinaryChunk) []*chunk.BinaryChunk {
	out := append([]*chunk.BinaryChunk(nil), chunks...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestGroupResolversMatchGeneric(t *testing.T) {
	for name, keys := range intKeySets() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name)) + keys[len(keys)-1]))
			chunks := shuffled(rng, groupChunks(t, rng, 6, 250, keys, groupStrs))
			for _, sql := range groupQueries {
				q, err := ParseSQL(sql, groupSch)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				want := mustEncode(t, feedGroups(t, q, chunks, true))

				// One partial, the same chunk order: float sums included.
				got := feedGroups(t, q, chunks, false)
				if !bytes.Equal(mustEncode(t, got), want) {
					t.Errorf("%s: serialized partial differs from the generic resolver's", sql)
				}
				if ref := feedGroups(t, q, chunks, true); !sameResult(mustResult(t, got), mustResult(t, ref)) {
					t.Errorf("%s: Result differs from the generic resolver's", sql)
				}

				// Partials over the two halves, merged across resolvers in
				// both directions, and once through the wire.
				half := len(chunks) / 2
				ref := feedGroups(t, q, chunks[:half], true)
				if err := ref.Merge(feedGroups(t, q, chunks[half:], true)); err != nil {
					t.Fatal(err)
				}
				wantMerged, wantResult := mustEncode(t, ref), mustResult(t, ref)
				for _, c := range []struct {
					name           string
					first, second  bool // the generic resolver?
					throughTheWire bool
				}{
					{"typed←generic", false, true, false},
					{"generic←typed", true, false, false},
					{"typed←typed", false, false, false},
					{"typed←wire(generic)", false, true, true},
					{"generic←wire(typed)", true, false, true},
				} {
					a, b := feedGroups(t, q, chunks[:half], c.first), feedGroups(t, q, chunks[half:], c.second)
					if c.throughTheWire {
						if b, err = DecodePartial(q, groupSch, mustEncode(t, b)); err != nil {
							t.Fatalf("%s: %s: %v", sql, c.name, err)
						}
					}
					if err := a.Merge(b); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(mustEncode(t, a), wantMerged) {
						t.Errorf("%s: %s: merged partial differs from the generic merge", sql, c.name)
					}
					if !sameResult(mustResult(t, a), wantResult) {
						t.Errorf("%s: %s: merged Result differs from the generic merge", sql, c.name)
					}
				}
			}
		})
	}
}

// TestIntResolverWidens: a single Int64 key resolves through the direct
// index while its keys span fewer than directSpan values — re-centring it
// as they spread — and hands over to the slots, with every group in place,
// at the row whose key widens the span, even in the middle of a chunk.
func TestIntResolverWidens(t *testing.T) {
	seq := func(from, to, step int64) []int64 {
		var keys []int64
		for k := from; k <= to; k += step {
			keys = append(keys, k)
		}
		return keys
	}
	for name, c := range map[string]struct {
		keys  []int64
		slots bool
	}{
		"narrow":             {seq(0, 31, 1), false},
		"spreading":          {append(seq(0, 2000, 97), seq(-2000, 0, 89)...), false},
		"widens mid-chunk":   {append(append(seq(0, 99, 1), 1<<40), seq(-5, 99, 1)...), true},
		"outgrown spreading": {append(seq(0, 2000, 97), seq(-2200, 0, 89)...), true},
		"extremes":           {[]int64{math.MaxInt64, math.MinInt64, 0, math.MaxInt64}, true},
	} {
		k, v := chunk.NewVector(schema.Int64, len(c.keys)), chunk.NewVector(schema.Int64, len(c.keys))
		copy(k.Ints, c.keys)
		for r := range v.Ints {
			v.Ints[r] = int64(r)
		}
		bc := chunk.NewBinary(groupSch, 0, len(c.keys))
		for i, vec := range []*chunk.Vector{k, v} {
			if err := bc.SetColumn(i, vec); err != nil {
				t.Fatal(err)
			}
		}
		q, err := ParseSQL("SELECT k, COUNT(*), SUM(v), MIN(v) FROM t GROUP BY k", groupSch)
		if err != nil {
			t.Fatal(err)
		}
		chunks := []*chunk.BinaryChunk{bc, bc}
		typed, generic := feedGroups(t, q, chunks, false), feedGroups(t, q, chunks, true)
		if got := typed.groups.slots != nil; got != c.slots {
			t.Errorf("%s: resolving by slots is %v, want %v", name, got, c.slots)
		}
		if !bytes.Equal(mustEncode(t, typed), mustEncode(t, generic)) {
			t.Errorf("%s: serialized partial differs from the generic resolver's", name)
		}
	}
}

// TestGroupResolverChoice pins which key shapes get which resolver, so the
// differential suite above cannot pass by comparing the generic resolver
// with itself.
func TestGroupResolverChoice(t *testing.T) {
	for sql, want := range map[string]resolverKind{
		"SELECT COUNT(*) FROM t":                          resolveScalar,
		"SELECT k, COUNT(*) FROM t GROUP BY k":            resolveInt,
		"SELECT k % 16, COUNT(*) FROM t GROUP BY k % 16":  resolveInt,
		"SELECT s, COUNT(*) FROM t GROUP BY s":            resolveStr,
		"SELECT f, COUNT(*) FROM t GROUP BY f":            resolveGeneric,
		"SELECT k, s, COUNT(*) FROM t GROUP BY k, s":      resolveGeneric,
		"SELECT k, v, COUNT(*) FROM t GROUP BY k, v":      resolveGeneric,
		"SELECT k + f, COUNT(*) FROM t GROUP BY k + f":    resolveGeneric,
		"SELECT k * 2, MIN(s) FROM t GROUP BY k * 2":      resolveInt,
		"SELECT s, MAX(f) FROM t WHERE k > 0 GROUP BY s":  resolveStr,
		"SELECT SUM(v) FROM t WHERE s LIKE 'chr%'":        resolveScalar,
		"SELECT k, COUNT(*) AS n FROM t GROUP BY k, k":    resolveGeneric,
		"SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY 2": resolveInt,
	} {
		q, err := ParseSQL(sql, groupSch)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		p, err := NewPartial(q, groupSch)
		if err != nil {
			t.Fatal(err)
		}
		if p.groups.kind != want {
			t.Errorf("%s: resolver %d, want %d", sql, p.groups.kind, want)
		}
		if g, _ := newPartial(q, groupSch, true); want != resolveScalar && g.groups.kind != resolveGeneric {
			t.Errorf("%s: the generic constructor built resolver %d", sql, g.groups.kind)
		}
	}
}

// TestGroupTableGrowth: 131,072 distinct int keys arriving over many chunks
// — the slot array and the state arrays grow a dozen times with groups
// already in them, and at one group per row — then every key once more.
func TestGroupTableGrowth(t *testing.T) {
	const distinct, rows = 1 << 17, 1 << 12
	q, err := ParseSQL("SELECT k, COUNT(*), SUM(v), MIN(v) FROM t GROUP BY k", groupSch)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) int64 { return int64(i)*0x10001 - distinct } // distinct, both signs, not dense
	var chunks []*chunk.BinaryChunk
	for pass := 0; pass < 2; pass++ {
		for base := 0; base < distinct; base += rows {
			k, v := chunk.NewVector(schema.Int64, rows), chunk.NewVector(schema.Int64, rows)
			for r := 0; r < rows; r++ {
				k.Ints[r], v.Ints[r] = key(base+r), int64(base+r+pass)
			}
			bc := chunk.NewBinary(groupSch, len(chunks), rows)
			for i, vec := range []*chunk.Vector{k, v} {
				if err := bc.SetColumn(i, vec); err != nil {
					t.Fatal(err)
				}
			}
			chunks = append(chunks, bc)
		}
	}
	typed, generic := feedGroups(t, q, chunks, false), feedGroups(t, q, chunks, true)
	if typed.groups.n != distinct {
		t.Fatalf("%d groups, want %d", typed.groups.n, distinct)
	}
	res := mustResult(t, typed)
	if !sameResult(res, mustResult(t, generic)) {
		t.Fatal("Result differs from the generic resolver's")
	}
	for _, row := range res.Rows {
		i := (row[0].Int + distinct) / 0x10001
		if row[0].Int != key(int(i)) || row[1].Int != 2 || row[2].Int != 2*i+1 || row[3].Int != i {
			t.Fatalf("group %v: want key %d, count 2, sum %d, min %d", row, key(int(i)), 2*i+1, i)
		}
	}
}

func ExampleNewPartial_groupOrder() {
	// Groups come back in canonical key order — the decimal string, not
	// the number — whichever resolver found them.
	sch := schema.MustNew(schema.Column{Name: "k", Type: schema.Int64})
	bc := chunk.NewBinary(sch, 0, 4)
	_ = bc.SetColumn(0, &chunk.Vector{Type: schema.Int64, Ints: []int64{10, 9, -1, 100}})
	q, _ := ParseSQL("SELECT k FROM t GROUP BY k", sch)
	p, _ := NewPartial(q, sch)
	_, _ = p.ConsumeCounted(bc)
	res, _ := p.Result()
	for _, row := range res.Rows {
		fmt.Println(row[0])
	}
	// Output:
	// -1
	// 10
	// 100
	// 9
}
