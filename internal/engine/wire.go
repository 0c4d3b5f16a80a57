package engine

import (
	"fmt"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
	"scanraw/internal/wire"
)

// Wire codec for Partial: the serialized form a fleet worker ships to the
// coordinator, which decodes it into a partial bound to its own parsed
// query and folds it through the ordinary Merge path. The merge tree does
// not care whether partials arrive from goroutines or from the network —
// this file is the boundary that makes the latter possible.
//
// The payload is versioned (leading byte) and self-describing enough to be
// total on decode: any byte slice either yields a valid partial for the
// given query or an error, never a panic. The scalar encoding and its
// bounds checks are internal/wire's; integrity (CRC) and length framing
// live one layer up, in internal/cluster, in the same wire frame the store
// puts manifest records in.
//
// Chunk provenance is rebased on encode: the worker's local chunk IDs are
// shifted by the owning range's global base so that canonical row order —
// (ORDER BY keys, chunk ID, row ordinal) — is a fleet-wide total order and
// distributed results stay byte-identical to single-process execution.

// wireVersion is the current Partial payload version.
const wireVersion = 1

// Partial payload kinds: the decoder checks the kind against the query
// shape, so a payload cannot smuggle, say, a row buffer into an aggregate
// merge.
const (
	wireKindRows   = 0 // unbounded row buffer (no LIMIT)
	wireKindTop    = 1 // top-k heap (LIMIT, with or without ORDER BY)
	wireKindGroups = 2 // aggregation state, groups in ascending key order
)

// Decode limits: a decoded count beyond these is corruption, not data.
const (
	maxWireRows    = 1 << 22
	maxWireGroups  = 1 << 22
	maxWireCols    = 1 << 14
	maxWireChunkID = 1 << 30
)

// Value tags on the wire.
const (
	wireValInt   = 0
	wireValFloat = 1
	wireValStr   = 2
)

// EncodeValue appends one tagged value: the cell codec shared by the
// partial payload and the /exec row frames.
func EncodeValue(e *wire.Enc, v Value) error {
	switch v.Typ {
	case schema.Int64:
		e.U8(wireValInt)
		e.Ivar(v.Int)
	case schema.Float64:
		e.U8(wireValFloat)
		e.F64(v.Float)
	case schema.Str:
		e.U8(wireValStr)
		e.Str(v.Str)
	default:
		return fmt.Errorf("engine: cannot encode value of type %v", v.Typ)
	}
	return nil
}

// DecodeValue inverts EncodeValue; a failure lands on d.
func DecodeValue(d *wire.Dec) Value {
	switch tag := d.U8(); tag {
	case wireValInt:
		return Value{Typ: schema.Int64, Int: d.Ivar()}
	case wireValFloat:
		return Value{Typ: schema.Float64, Float: d.F64()}
	case wireValStr:
		return Value{Typ: schema.Str, Str: d.Str()}
	default:
		d.Failf("unknown value tag %d", tag)
		return Value{}
	}
}

func encodeProw(e *wire.Enc, pr *prow, chunkBase int) error {
	e.Uvar(uint64(pr.chunk + chunkBase))
	e.Uvar(uint64(pr.row))
	e.Uvar(uint64(len(pr.vals)))
	for _, v := range pr.vals {
		if err := EncodeValue(e, v); err != nil {
			return err
		}
	}
	return nil
}

func decodeProw(d *wire.Dec, wantVals int) prow {
	pr := prow{
		chunk: d.Count(maxWireChunkID, "chunk id"),
		row:   d.Count(maxWireChunkID, "row ordinal"),
	}
	n := d.Count(maxWireCols, "value count")
	if d.Err() != nil {
		return pr
	}
	if n != wantVals {
		d.Failf("row carries %d values, query selects %d", n, wantVals)
		return pr
	}
	pr.vals = make([]Value, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		pr.vals[i] = DecodeValue(d)
	}
	return pr
}

// aggState is one select item's state for one group as the wire carries
// it: every field any function keeps, whatever the item's function. An acc
// writes the fields its function keeps and zero in the others (state), and
// reads back only its own (set), so a payload from an encoder that kept
// every field decodes to the same state.
type aggState struct {
	count    int64
	sumInt   int64
	sumFloat float64
	minI     int64
	maxI     int64
	minF     float64
	maxF     float64
	minS     string
	maxS     string
	seen     bool
}

// state is group ord's wire record.
func (a *acc) state(ord int) aggState {
	var st aggState
	if a.count != nil {
		st.count = a.count[ord]
	}
	if a.sumI != nil {
		st.sumInt = a.sumI[ord]
	}
	if a.sumF != nil {
		st.sumFloat = a.sumF[ord]
	}
	if a.seen == nil {
		return st
	}
	st.seen = a.seen[ord]
	v := valueAt(&a.ext, ord) // zero in the fields of the other types
	if a.fn == AggMin {
		st.minI, st.minF, st.minS = v.Int, v.Float, v.Str
	} else {
		st.maxI, st.maxF, st.maxS = v.Int, v.Float, v.Str
	}
	return st
}

// set installs a decoded wire record as group ord's state.
func (a *acc) set(ord int, st aggState) {
	if a.count != nil {
		a.count[ord] = st.count
	}
	if a.sumI != nil {
		a.sumI[ord] = st.sumInt
	}
	if a.sumF != nil {
		a.sumF[ord] = st.sumFloat
	}
	if a.seen == nil {
		return
	}
	a.seen[ord] = st.seen
	v := Value{Int: st.minI, Float: st.minF, Str: st.minS}
	if a.fn == AggMax {
		v = Value{Int: st.maxI, Float: st.maxF, Str: st.maxS}
	}
	switch a.ext.Type {
	case schema.Int64:
		a.ext.Ints[ord] = v.Int
	case schema.Float64:
		a.ext.Floats[ord] = v.Float
	default:
		a.ext.Strs[ord] = v.Str
	}
}

func encodeAggState(e *wire.Enc, st *aggState) {
	e.Ivar(st.count)
	e.Ivar(st.sumInt)
	e.F64(st.sumFloat)
	e.Ivar(st.minI)
	e.Ivar(st.maxI)
	e.F64(st.minF)
	e.F64(st.maxF)
	e.Str(st.minS)
	e.Str(st.maxS)
	e.Bool(st.seen)
}

func decodeAggState(d *wire.Dec) aggState {
	return aggState{
		count:    d.Ivar(),
		sumInt:   d.Ivar(),
		sumFloat: d.F64(),
		minI:     d.Ivar(),
		maxI:     d.Ivar(),
		minF:     d.F64(),
		maxF:     d.F64(),
		minS:     d.Str(),
		maxS:     d.Str(),
		seen:     d.U8() != 0,
	}
}

// EncodePartial serializes p's accumulated state. chunkBase shifts every
// buffered row's chunk provenance into the fleet-global chunk ID space —
// the worker executed over local chunk IDs starting at its range's lower
// bound, and the coordinator needs the global IDs for the canonical order.
// Aggregate state carries no provenance, so chunkBase is irrelevant there.
// The partial is not consumed and stays usable.
func EncodePartial(p *Partial, chunkBase int) ([]byte, error) {
	if p.done {
		return nil, fmt.Errorf("engine: EncodePartial after Result")
	}
	if chunkBase < 0 {
		return nil, fmt.Errorf("engine: negative chunk base %d", chunkBase)
	}
	e := &wire.Enc{Buf: make([]byte, 0, 256)}
	e.U8(wireVersion)
	switch {
	case p.groups != nil:
		e.U8(wireKindGroups)
		t := p.groups
		e.Uvar(uint64(t.n))
		for _, k := range t.sorted() {
			e.Str(k.key)
			e.Uvar(uint64(len(t.keys)))
			for i := range t.keys {
				if err := EncodeValue(e, valueAt(&t.keys[i], k.ord)); err != nil {
					return nil, err
				}
			}
			e.Uvar(uint64(len(t.accs)))
			for i := range t.accs {
				st := t.accs[i].state(k.ord)
				encodeAggState(e, &st)
			}
		}
	case p.top != nil:
		e.U8(wireKindTop)
		e.Uvar(uint64(len(p.top.entries)))
		for i := range p.top.entries {
			if err := encodeProw(e, &p.top.entries[i], chunkBase); err != nil {
				return nil, err
			}
		}
	default:
		e.U8(wireKindRows)
		e.Uvar(uint64(len(p.rows)))
		for i := range p.rows {
			if err := encodeProw(e, &p.rows[i], chunkBase); err != nil {
				return nil, err
			}
		}
	}
	return e.Buf, nil
}

// DecodePartial parses a serialized partial into a fresh Partial bound to
// q and sch — the coordinator's own parsed query, so the result merges
// with partials from every other peer (Merge requires pointer-identical
// queries). Decoding is total: arbitrary input yields a partial or an
// error, never a panic, and trailing bytes are rejected.
func DecodePartial(q *Query, sch *schema.Schema, data []byte) (*Partial, error) {
	p, err := NewPartial(q, sch)
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(data, "engine", "partial payload")
	if v := d.U8(); d.Err() == nil && v != wireVersion {
		return nil, fmt.Errorf("engine: unsupported partial version %d", v)
	}
	kind := d.U8()
	if d.Err() != nil {
		return nil, d.Err()
	}
	switch kind {
	case wireKindGroups:
		if p.groups == nil {
			return nil, fmt.Errorf("engine: aggregate payload for a non-aggregate query")
		}
		n := d.Count(maxWireGroups, "group count")
		t := p.groups
		// One decoded group's key values, laid out as a one-row chunk so the
		// group enters the table the way a row's would.
		keyRow := make([]*chunk.Vector, len(t.keys))
		for i := range keyRow {
			keyRow[i] = chunk.NewVector(t.keys[i].Type, 1)
		}
		var prevKey string
		var kb []byte
		var ord [1]int32
		for i := 0; i < n && d.Err() == nil; i++ {
			key := d.Str()
			if d.Err() == nil && i > 0 && key <= prevKey {
				d.Failf("group keys not strictly ascending")
				break
			}
			prevKey = key
			nk := d.Count(maxWireCols, "group key count")
			if d.Err() == nil && nk != len(keyRow) {
				d.Failf("group carries %d keys, query groups by %d", nk, len(keyRow))
				break
			}
			// The key values are the group's identity and the key string its
			// place in the order: a payload in which the two disagree would
			// merge under one key and sort under another.
			kb = kb[:0]
			for _, kv := range keyRow {
				v := DecodeValue(d)
				if d.Err() != nil {
					break
				}
				if v.Typ != kv.Type {
					d.Failf("group key is %v, query groups by %v", v.Typ, kv.Type)
					break
				}
				switch v.Typ {
				case schema.Int64:
					kv.Ints[0] = v.Int
				case schema.Float64:
					kv.Floats[0] = v.Float
				default:
					kv.Strs[0] = v.Str
				}
				kb = appendKey(kb, kv, 0)
			}
			if d.Err() == nil && string(kb) != key {
				d.Failf("group key string is not the encoding of its key values")
				break
			}
			na := d.Count(maxWireCols, "aggregate count")
			if d.Err() == nil && na != len(t.accs) {
				d.Failf("group carries %d aggregates, query selects %d", na, len(t.accs))
				break
			}
			if d.Err() != nil {
				break
			}
			// Strictly ascending canonical keys are pairwise distinct, and so
			// are the key values they encode: every group is a new one.
			t.resolve(keyRow, nil, ord[:])
			for j := range t.accs {
				t.accs[j].set(int(ord[0]), decodeAggState(d))
			}
		}
	case wireKindTop:
		if p.top == nil {
			return nil, fmt.Errorf("engine: top-k payload for a query without LIMIT")
		}
		n := d.Count(maxWireRows, "row count")
		if d.Err() == nil && n > q.Limit {
			d.Failf("top-k payload holds %d rows, LIMIT is %d", n, q.Limit)
		}
		for i := 0; i < n && d.Err() == nil; i++ {
			pr := decodeProw(d, len(q.Items))
			if d.Err() == nil {
				p.top.push(pr)
			}
		}
	case wireKindRows:
		if p.groups != nil || p.top != nil {
			return nil, fmt.Errorf("engine: row-buffer payload does not match query shape")
		}
		n := d.Count(maxWireRows, "row count")
		for i := 0; i < n && d.Err() == nil; i++ {
			pr := decodeProw(d, len(q.Items))
			if d.Err() == nil {
				p.rows = append(p.rows, pr)
			}
		}
	default:
		return nil, fmt.Errorf("engine: unknown partial kind %d", kind)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return p, nil
}

// MergePartials folds a slice of partials (all bound to the same query)
// into the first one and returns it. It is the coordinator's gather step:
// decode one partial per peer, merge in assignment order, finalize once.
func MergePartials(parts []*Partial) (*Partial, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("engine: no partials to merge")
	}
	root := parts[0]
	for _, p := range parts[1:] {
		if err := root.Merge(p); err != nil {
			return nil, err
		}
	}
	return root, nil
}
