package engine

import (
	"slices"
	"strings"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// groupTable is a partial's aggregate state: groups are dense ordinals
// 0..n-1 in order of first appearance, key values live in one column per
// GROUP BY expression and aggregate state in typed columns, one set per
// select item (acc), so a group costs no pointer and no allocation of its
// own, and an aggregate only the fields its function reads.
//
// A group's identity is its typed key values; how a row finds its ordinal
// is the resolver, fixed per query shape when the table is built. The
// canonical string key — appendKey over the key values, the order Result
// and the wire sort by — is derived per group, only where it is observable
// (canonicalKeys), never per row.
type groupTable struct {
	kind resolverKind
	n    int            // groups
	room int            // groups every column has room for
	keys []chunk.Vector // one per GROUP BY expression, indexed by ordinal
	accs []acc          // one per select item

	// resolveInt while the keys span fewer than directSpan values: the
	// ordinal plus one of key k is direct[k-base] (mod 2^64, so every key
	// has at most one entry), zero marking a key not seen. lo and hi are
	// the smallest and largest key.
	direct       []int32
	base, lo, hi int64

	// resolveInt once the keys outgrow that: open addressing on the raw
	// key, at most half full, so a probe always ends on an empty slot.
	// Slots are rebuilt from keys[0] when the table grows.
	slots []intSlot
	shift uint // 64 - log2(len(slots))

	// resolveStr: the raw string; resolveGeneric: the canonical key.
	byKey   map[string]int32
	lastKey string // resolveStr memo: the previous row's key and ordinal,
	lastOrd int32  // -1 before the first row
	kb      []byte // resolveGeneric key scratch
}

// resolverKind names how a row's key values find their group ordinal.
type resolverKind uint8

const (
	resolveScalar  resolverKind = iota // no GROUP BY: ordinal 0 is the only group
	resolveInt                         // one Int64 key: direct index, then hash table on the raw value
	resolveStr                         // one Str key: map probed with the vector's string
	resolveGeneric                     // anything else: canonical key bytes → ordinal
)

// intSlot is one open-addressing slot; ord is the group ordinal plus one,
// zero marking an empty slot.
type intSlot struct {
	key int64
	ord int32
}

const (
	// minGroups is the number of groups a table has room for from the
	// start.
	minGroups = 32
	// directSpan bounds the direct index: keys spanning this many values
	// or more (16 KiB of ordinals) go to the hash table. minDirect is its
	// smallest size.
	directSpan = 4096
	minDirect  = 64
)

// newGroupTable builds an empty table for q. generic forces the generic
// resolver whatever the key shape — the differential tests' oracle.
func newGroupTable(q *Query, generic bool) *groupTable {
	t := &groupTable{keys: make([]chunk.Vector, len(q.GroupBy)), accs: make([]acc, len(q.Items))}
	for i, g := range q.GroupBy {
		t.keys[i] = emptyVector(g.Type())
	}
	for i, it := range q.Items {
		t.accs[i] = newAcc(it, q.GroupBy)
	}
	switch {
	case len(q.GroupBy) == 0:
		t.kind = resolveScalar
	case generic || len(q.GroupBy) > 1 || t.keys[0].Type == schema.Float64:
		t.kind = resolveGeneric
		t.byKey = make(map[string]int32)
	case t.keys[0].Type == schema.Int64:
		t.kind = resolveInt
	default:
		t.kind = resolveStr
		t.byKey = make(map[string]int32)
		t.lastOrd = -1
	}
	return t
}

// addGroup appends a zero-state group whose key values are row r of vecs
// and returns its ordinal. Ordinals are int32: the state of 2^31 groups is
// tens of gigabytes, out of reach long before the ordinal overflows.
func (t *groupTable) addGroup(vecs []*chunk.Vector, r int) int32 {
	if t.n == t.room {
		t.grow()
	}
	for i, kv := range vecs {
		switch k := &t.keys[i]; k.Type {
		case schema.Int64:
			k.Ints = append(k.Ints, kv.Ints[r])
		case schema.Float64:
			k.Floats = append(k.Floats, kv.Floats[r])
		default:
			k.Strs = append(k.Strs, kv.Strs[r])
		}
	}
	for i := range t.accs {
		t.accs[i].extend()
	}
	t.n++
	return int32(t.n - 1)
}

// grow doubles the room for groups (append would settle for a quarter more
// and copy a large table five times over on its way up).
func (t *groupTable) grow() {
	t.room = max(minGroups, 2*t.n)
	for i := range t.keys {
		reserveVector(&t.keys[i], t.room)
	}
	for i := range t.accs {
		t.accs[i].reserve(t.room)
	}
}

// scalar creates the single group of a query without GROUP BY on first use.
func (t *groupTable) scalar() {
	if t.n == 0 {
		t.addGroup(nil, 0)
	}
}

// resolve writes into ords the group ordinal of each selected row of the
// key vectors (sel nil: rows 0..len(ords)-1), adding a group for every key
// not seen before.
func (t *groupTable) resolve(vecs []*chunk.Vector, sel []int, ords []int32) {
	switch t.kind {
	case resolveScalar:
		if len(ords) > 0 {
			t.scalar()
		}
		clear(ords)
	case resolveInt:
		j := 0
		if t.slots == nil {
			j = t.resolveDirect(vecs, sel, ords)
		}
		t.resolveSlots(vecs, sel, ords, j)
	case resolveStr:
		strs := vecs[0].Strs
		lastKey, lastOrd := t.lastKey, t.lastOrd
		for j := range ords {
			r := j
			if sel != nil {
				r = sel[j]
			}
			if s := strs[r]; lastOrd < 0 || s != lastKey {
				ord, ok := t.byKey[s]
				if !ok {
					ord = t.addGroup(vecs, r)
					t.byKey[s] = ord
				}
				lastKey, lastOrd = s, ord
			}
			ords[j] = lastOrd
		}
		t.lastKey, t.lastOrd = lastKey, lastOrd
	default:
		kb := t.kb
		for j := range ords {
			r := j
			if sel != nil {
				r = sel[j]
			}
			kb = kb[:0]
			for _, kv := range vecs {
				kb = appendKey(kb, kv, r)
			}
			ord, ok := t.byKey[string(kb)]
			if !ok {
				ord = t.addGroup(vecs, r)
				t.byKey[string(kb)] = ord
			}
			ords[j] = ord
		}
		t.kb = kb
	}
}

// resolveDirect resolves rows through the direct index until a new key
// widens the keys' span to directSpan; it returns the number of rows
// resolved, all of them unless the table has switched to slots.
func (t *groupTable) resolveDirect(vecs []*chunk.Vector, sel []int, ords []int32) int {
	ints := vecs[0].Ints
	direct, base := t.direct, t.base
	j := 0
	if sel == nil {
		// The common case, without the selection's indirection, up to
		// the first key the index does not hold.
		for ints := ints[:len(ords)]; j < len(ints); j++ {
			i := uint64(ints[j]) - uint64(base)
			if i >= uint64(len(direct)) || direct[i] == 0 {
				break
			}
			ords[j] = direct[i] - 1
		}
	}
	for ; j < len(ords); j++ {
		r := j
		if sel != nil {
			r = sel[j]
		}
		k := ints[r]
		if i := uint64(k) - uint64(base); i < uint64(len(direct)) && direct[i] != 0 {
			ords[j] = direct[i] - 1
			continue
		}
		ords[j] = t.addGroup(vecs, r)
		if t.placeDirect(k) {
			direct, base = t.direct, t.base
			continue
		}
		return j + 1
	}
	return len(ords)
}

// placeDirect enters the newest group, of key k, in the direct index,
// re-centring a larger index on the keys when k falls outside it. Once the
// keys span directSpan values it builds the slots instead and reports false.
func (t *groupTable) placeDirect(k int64) bool {
	if t.n == 1 {
		t.lo, t.hi = k, k
	} else {
		t.lo, t.hi = min(t.lo, k), max(t.hi, k)
	}
	if i := uint64(k) - uint64(t.base); i < uint64(len(t.direct)) {
		t.direct[i] = int32(t.n)
		return true
	}
	width := uint64(t.hi) - uint64(t.lo) + 1 // the keys' span; 0 if all 2^64
	if width == 0 || width >= directSpan {
		t.direct = nil
		size := 2 * minGroups
		for size < 2*t.n {
			size *= 2
		}
		t.rehash(size)
		return false
	}
	// At least twice the span, the slack split between both ends: a key
	// that falls outside again has widened the span by half the slack.
	size := uint64(minDirect)
	for size < 2*width && size < directSpan {
		size *= 2
	}
	t.base = int64(uint64(t.lo) - (size-width)/2)
	t.direct = make([]int32, size)
	for o, key := range t.keys[0].Ints {
		t.direct[uint64(key)-uint64(t.base)] = int32(o) + 1
	}
	return true
}

// resolveSlots resolves rows j.. by probing the slots.
func (t *groupTable) resolveSlots(vecs []*chunk.Vector, sel []int, ords []int32, j int) {
	ints := vecs[0].Ints
	for ; j < len(ords); j++ {
		r := j
		if sel != nil {
			r = sel[j]
		}
		// Probe in place: an insertion may replace t.slots, so the
		// slice is read afresh for every row.
		k, mask := ints[r], uint64(len(t.slots)-1)
		for i := intHash(k) >> t.shift; ; i = (i + 1) & mask {
			if s := t.slots[i]; s.ord == 0 {
				ords[j] = t.insertInt(i, k, vecs, r)
				break
			} else if s.key == k {
				ords[j] = s.ord - 1
				break
			}
		}
	}
}

// intHash spreads an int64 key over the top bits: the fold brings the high
// half down first, so keys that differ only in high bits (a power-of-two
// stride) still differ where the multiplication can reach the top.
func intHash(k int64) uint64 {
	u := uint64(k)
	return (u ^ u>>32) * 0x9E3779B97F4A7C15
}

// insertInt adds the group of key k (key values: row r of vecs) at the
// empty slot i its probe ended on, growing the slot array first when the
// group would take it past half full.
func (t *groupTable) insertInt(i uint64, k int64, vecs []*chunk.Vector, r int) int32 {
	ord := t.addGroup(vecs, r)
	if 2*t.n > len(t.slots) {
		t.rehash(2 * len(t.slots))
	} else {
		t.slots[i] = intSlot{key: k, ord: ord + 1}
	}
	return ord
}

// rehash rebuilds the slot array at the given power-of-two size from the
// key column.
func (t *groupTable) rehash(size int) {
	t.slots = make([]intSlot, size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	mask := uint64(size - 1)
	for ord, k := range t.keys[0].Ints {
		i := intHash(k) >> t.shift
		for t.slots[i].ord != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = intSlot{key: k, ord: int32(ord) + 1}
	}
}

// merge folds o's groups into t: o's key columns resolve like the rows of a
// chunk, a key t has not seen takes o's state as it stands and a shared one
// merges item by item. The two tables may hold different ordinals
// for the same key, or different resolvers; the key values are the identity.
func (t *groupTable) merge(o *groupTable) {
	had := t.n
	vecs := make([]*chunk.Vector, len(o.keys))
	for i := range o.keys {
		vecs[i] = &o.keys[i]
	}
	ords := make([]int32, o.n)
	t.resolve(vecs, nil, ords)
	for oo, ord := range ords {
		for i := range t.accs {
			t.accs[i].merge(int(ord), &o.accs[i], oo, int(ord) >= had)
		}
	}
}

// groupKey pairs a group's ordinal with its canonical string key: appendKey
// over its key values, exactly the bytes a row-at-a-time string-keyed table
// would have hashed.
type groupKey struct {
	key string
	ord int
}

// canonicalKeys derives every group's canonical key, in ordinal order. The
// keys share one backing string.
func (t *groupTable) canonicalKeys() []groupKey {
	keys := make([]groupKey, t.n)
	buf := make([]byte, 0, 12*t.n)
	for ord := range keys {
		for i := range t.keys {
			buf = appendKey(buf, &t.keys[i], ord)
		}
		keys[ord].ord = len(buf) // where the key ends, until the bytes are a string
	}
	all, start := string(buf), 0
	for ord := range keys {
		end := keys[ord].ord
		keys[ord] = groupKey{key: all[start:end], ord: ord}
		start = end
	}
	return keys
}

// sorted returns the groups in ascending canonical key order — the order of
// Result rows and of groups on the wire.
func (t *groupTable) sorted() []groupKey {
	keys := t.canonicalKeys()
	slices.SortFunc(keys, func(a, b groupKey) int { return strings.Compare(a.key, b.key) })
	return keys
}

// keyValues returns group ord's key values.
func (t *groupTable) keyValues(ord int) []Value {
	if len(t.keys) == 0 {
		return nil
	}
	vals := make([]Value, len(t.keys))
	for i := range t.keys {
		vals[i] = valueAt(&t.keys[i], ord)
	}
	return vals
}
