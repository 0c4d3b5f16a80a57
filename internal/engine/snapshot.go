package engine

// AggSnapshot is the mergeable accumulator state of one aggregate cell:
// exactly the fields COUNT/SUM/AVG ever read (count, integer sum, float
// sum). MIN/MAX state is deliberately absent — extremes are not estimable
// from a chunk sample, and the online-aggregation layer rejects them up
// front.
type AggSnapshot struct {
	Count    int64
	SumInt   int64
	SumFloat float64
}

// GroupAgg is one group's accumulator snapshot: the encoded group key (the
// same canonical key Merge and Result use), the key values, and one
// AggSnapshot per select item (zero-valued for AggNone items).
type GroupAgg struct {
	Key  string
	Keys []Value
	Aggs []AggSnapshot
}

// GroupAggs snapshots the per-group aggregate state accumulated so far.
// The returned slices are copies, so the snapshot stays valid after the
// partial is merged away. Only aggregate queries carry group state; for row
// queries the result is nil.
func (p *Partial) GroupAggs() []GroupAgg {
	t := p.groups
	if t == nil {
		return nil
	}
	out := make([]GroupAgg, t.n)
	for _, k := range t.canonicalKeys() {
		ga := GroupAgg{Key: k.key, Keys: t.keyValues(k.ord), Aggs: make([]AggSnapshot, len(t.accs))}
		for i := range t.accs {
			st := t.accs[i].state(k.ord)
			ga.Aggs[i] = AggSnapshot{Count: st.count, SumInt: st.sumInt, SumFloat: st.sumFloat}
		}
		out[k.ord] = ga
	}
	return out
}
