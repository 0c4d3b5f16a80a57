package engine

import (
	"context"
	"fmt"
	"sort"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// Partial is a mergeable fragment of query-execution state: selection,
// aggregation hash tables, and (for non-aggregate queries) a row buffer —
// bounded by a top-k heap when the query carries a LIMIT. Several partials
// over disjoint chunk subsets can run on independent goroutines (each
// partial is single-consumer) and be combined with Merge into a state whose
// Result is identical to feeding every chunk through one partial serially.
//
// Determinism contract: the final row order of a non-aggregate query is the
// canonical order (ORDER BY keys, then chunk ID, then row ordinal within
// the chunk), and grouped results are ordered by encoded group key — both
// independent of chunk arrival order or partial assignment. Aggregates over
// int64 data are exact; float SUM/AVG accumulate in partial order, so
// bit-identical parallel/serial results additionally require float data
// whose sums are exact in IEEE-754 (see DESIGN.md, "Parallel query
// evaluation").
type Partial struct {
	q   *Query
	sch *schema.Schema

	groups map[string]*group // aggregate path
	rows   []prow            // non-aggregate path, unbounded (no LIMIT)
	top    *topK             // non-aggregate path, bounded by LIMIT
	done   bool

	sel  []int           // selection scratch, reused across chunks
	selv *chunk.Vector   // project's WHERE result, held until releaseProjection
	cols []*chunk.Vector // project's select-item vectors, likewise
	kb   []byte          // group-key scratch, reused across rows
}

// prow is one buffered output row with its provenance, the tiebreaker that
// makes row order independent of delivery order.
type prow struct {
	chunk int
	row   int
	vals  []Value
}

// NewPartial validates q and creates an empty partial over schema sch.
func NewPartial(q *Query, sch *schema.Schema) (*Partial, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &Partial{q: q, sch: sch}
	if q.IsAggregate() {
		p.groups = make(map[string]*group)
	} else if q.Limit > 0 {
		p.top = &topK{p: p, k: q.Limit}
	}
	return p, nil
}

// Query returns the query the partial executes.
func (p *Partial) Query() *Query { return p.q }

// ConsumeContext folds one chunk into the partial after checking for
// cancellation: the delivery path calls it once per chunk, so a cancelled
// context stops execution at the next chunk boundary.
func (p *Partial) ConsumeContext(ctx context.Context, bc *chunk.BinaryChunk) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return p.Consume(bc)
}

// Consume folds one chunk into the partial. A partial is single-consumer:
// Consume must not be called concurrently on the same partial (use one
// partial per consume worker, or ParallelExecutor which enforces this).
func (p *Partial) Consume(bc *chunk.BinaryChunk) error {
	_, err := p.ConsumeCounted(bc)
	return err
}

// ConsumeCounted is Consume returning the number of rows that passed the
// WHERE clause, the signal demand-driven termination needs to decide when a
// LIMIT is provably met.
func (p *Partial) ConsumeCounted(bc *chunk.BinaryChunk) (int, error) {
	if p.done {
		return 0, fmt.Errorf("engine: Consume after Result")
	}
	sel, selv, err := p.selection(bc)
	if err != nil {
		return 0, err
	}
	matched := bc.Rows
	if sel != nil {
		matched = len(sel)
	}
	if p.q.IsAggregate() {
		err = p.consumeAgg(bc, sel)
	} else {
		err = p.consumeRows(bc, sel)
	}
	if selv != nil {
		releaseScratch(p.q.Where, selv)
	}
	return matched, err
}

// Bound returns the partial's current top-k cutoff — the output values of
// the worst row the heap retains — and whether the heap is full. Only a full
// heap yields a bound: until then any future row would still be kept. The
// bound is sound for pruning on its own (a chunk whose every row sorts
// strictly after it cannot enter the final top-k even combined with other
// partials, since this partial alone already holds k better rows).
func (p *Partial) Bound() ([]Value, bool) {
	if p.top == nil || len(p.top.entries) < p.top.k {
		return nil, false
	}
	worst := p.top.entries[0].vals
	out := make([]Value, len(worst))
	copy(out, worst)
	return out, true
}

// selection evaluates WHERE and returns the qualifying row ordinals (nil
// means all rows qualify). The returned vector, when non-nil, backs nothing
// in sel and is released by the caller after use.
func (p *Partial) selection(bc *chunk.BinaryChunk) ([]int, *chunk.Vector, error) {
	if p.q.Where == nil {
		return nil, nil, nil
	}
	v, err := p.q.Where.Eval(bc)
	if err != nil {
		return nil, nil, err
	}
	if cap(p.sel) < bc.Rows {
		p.sel = make([]int, 0, bc.Rows)
	}
	sel := p.sel[:0]
	for i, x := range v.Ints {
		if x != 0 {
			sel = append(sel, i)
		}
	}
	p.sel = sel
	return sel, v, nil
}

func (p *Partial) consumeAgg(bc *chunk.BinaryChunk, sel []int) error {
	if sel != nil && len(sel) == 0 {
		return nil
	}
	// Evaluate group-by keys and aggregate inputs once per chunk.
	keyVecs := make([]*chunk.Vector, len(p.q.GroupBy))
	for i, g := range p.q.GroupBy {
		v, err := g.Eval(bc)
		if err != nil {
			return err
		}
		keyVecs[i] = v
	}
	aggVecs := make([]*chunk.Vector, len(p.q.Items))
	for i, it := range p.q.Items {
		if it.Expr != nil {
			v, err := it.Expr.Eval(bc)
			if err != nil {
				return err
			}
			aggVecs[i] = v
		}
	}
	defer func() {
		for i, v := range keyVecs {
			releaseScratch(p.q.GroupBy[i], v)
		}
		for i, v := range aggVecs {
			if v != nil {
				releaseScratch(p.q.Items[i].Expr, v)
			}
		}
	}()
	if len(keyVecs) == 0 {
		// Scalar aggregation: one group, bulk loops over the vectors.
		// This is the hot path for the paper's SUM benchmark query; it
		// must stay cheap enough that SCANRAW, not the engine, is the
		// measured component.
		g, ok := p.groups[""]
		if !ok {
			g = &group{aggs: make([]aggState, len(p.q.Items))}
			p.groups[""] = g
		}
		for i, it := range p.q.Items {
			if it.Agg == AggNone {
				continue
			}
			updateAggBulk(&g.aggs[i], aggVecs[i], bc.Rows, sel)
		}
		return nil
	}
	// Grouped aggregation: build compact keys with strconv (no fmt, no
	// per-row allocation beyond new groups).
	kb := p.kb
	rowCount := bc.Rows
	if sel != nil {
		rowCount = len(sel)
	}
	for ri := 0; ri < rowCount; ri++ {
		r := ri
		if sel != nil {
			r = sel[ri]
		}
		kb = kb[:0]
		for _, kv := range keyVecs {
			kb = appendKey(kb, kv, r)
		}
		g, ok := p.groups[string(kb)]
		if !ok {
			keys := make([]Value, len(keyVecs))
			for i, kv := range keyVecs {
				keys[i] = valueAt(kv, r)
			}
			g = &group{keys: keys, aggs: make([]aggState, len(p.q.Items))}
			p.groups[string(kb)] = g
		}
		for i, it := range p.q.Items {
			if it.Agg == AggNone {
				continue
			}
			updateAggRow(&g.aggs[i], aggVecs[i], r)
		}
	}
	p.kb = kb
	return nil
}

func (p *Partial) consumeRows(bc *chunk.BinaryChunk, sel []int) error {
	vecs := make([]*chunk.Vector, len(p.q.Items))
	for i, it := range p.q.Items {
		v, err := it.Expr.Eval(bc)
		if err != nil {
			return err
		}
		vecs[i] = v
	}
	emit := func(r int) {
		row := make([]Value, len(vecs))
		for i, v := range vecs {
			row[i] = valueAt(v, r)
		}
		pr := prow{chunk: bc.ID, row: r, vals: row}
		if p.top != nil {
			p.top.push(pr)
		} else {
			p.rows = append(p.rows, pr)
		}
	}
	if sel == nil {
		for r := 0; r < bc.Rows; r++ {
			emit(r)
		}
	} else {
		for _, r := range sel {
			emit(r)
		}
	}
	for i, v := range vecs {
		releaseScratch(p.q.Items[i].Expr, v)
	}
	return nil
}

// project evaluates the query's selection and projection over one chunk
// into the partial's scratch: p.cols holds one vector per select item and
// the returned sel the qualifying row ordinals in chunk order — nil when
// all n rows qualify, otherwise n is len(sel). Whatever the outcome, the
// caller calls releaseProjection once it is done with them.
func (p *Partial) project(bc *chunk.BinaryChunk) (sel []int, n int, err error) {
	if p.q.IsAggregate() {
		return nil, 0, fmt.Errorf("engine: row projection of an aggregate query")
	}
	if sel, p.selv, err = p.selection(bc); err != nil {
		return nil, 0, err
	}
	for _, it := range p.q.Items {
		v, err := it.Expr.Eval(bc)
		if err != nil {
			return nil, 0, err
		}
		p.cols = append(p.cols, v)
	}
	n = bc.Rows
	if sel != nil {
		n = len(sel)
	}
	return sel, n, nil
}

// releaseProjection returns project's scratch vectors to their pool.
func (p *Partial) releaseProjection() {
	releaseScratch(p.q.Where, p.selv)
	for i, v := range p.cols {
		releaseScratch(p.q.Items[i].Expr, v)
	}
	p.selv, p.cols = nil, p.cols[:0]
}

// ChunkVectors evaluates the query's selection and projection over one chunk
// and hands fn the projected columns, one vector per select item, with the
// qualifying row ordinals in chunk order: sel nil means all n rows of every
// vector qualify, otherwise n is len(sel). It is the building block of
// streaming delivery, where a chunk's rows go to the wire as the chunk
// arrives — straight from the vectors, without a Value per cell. The vectors
// and sel are the partial's scratch, valid only until fn returns; the
// partial's accumulated state is untouched. Only valid for non-aggregate
// queries; like Consume, calls on the same partial must not overlap.
func (p *Partial) ChunkVectors(bc *chunk.BinaryChunk, fn func(cols []*chunk.Vector, sel []int, n int)) error {
	sel, n, err := p.project(bc)
	defer p.releaseProjection()
	if err != nil {
		return err
	}
	fn(p.cols, sel, n)
	return nil
}

// ChunkRows is ChunkVectors materialized: the qualifying rows as values the
// caller may keep.
func (p *Partial) ChunkRows(bc *chunk.BinaryChunk) ([][]Value, error) {
	sel, n, err := p.project(bc)
	defer p.releaseProjection()
	if err != nil {
		return nil, err
	}
	cols := p.cols
	out := make([][]Value, 0, n)
	for ri := 0; ri < n; ri++ {
		r := ri
		if sel != nil {
			r = sel[ri]
		}
		row := make([]Value, len(cols))
		for i, v := range cols {
			row[i] = valueAt(v, r)
		}
		out = append(out, row)
	}
	return out, nil
}

// Merge folds o into p. Both partials must execute the same query; o is
// consumed and must not be used afterwards. Merging is commutative up to
// float summation order and buffered-row concatenation order, both of which
// the finalize step canonicalizes (see the type comment).
func (p *Partial) Merge(o *Partial) error {
	if p.done || o.done {
		return fmt.Errorf("engine: Merge after Result")
	}
	if p.q != o.q {
		return fmt.Errorf("engine: Merge of partials from different queries")
	}
	if p.groups != nil {
		for key, og := range o.groups {
			g, ok := p.groups[key]
			if !ok {
				p.groups[key] = og
				continue
			}
			for i := range g.aggs {
				mergeAgg(&g.aggs[i], &og.aggs[i])
			}
		}
		o.groups = nil
		return nil
	}
	if p.top != nil {
		for _, pr := range o.top.entries {
			p.top.push(pr)
		}
		o.top = nil
		return nil
	}
	p.rows = append(p.rows, o.rows...)
	o.rows = nil
	return nil
}

// mergeAgg folds one aggregate state into another. Only the fields the
// aggregate's type ever touched carry information, so merging every field
// unconditionally is safe.
func mergeAgg(dst, src *aggState) {
	dst.count += src.count
	dst.sumInt += src.sumInt
	dst.sumFloat += src.sumFloat
	if !src.seen {
		return
	}
	if !dst.seen {
		dst.minI, dst.maxI = src.minI, src.maxI
		dst.minF, dst.maxF = src.minF, src.maxF
		dst.minS, dst.maxS = src.minS, src.maxS
		dst.seen = true
		return
	}
	if src.minI < dst.minI {
		dst.minI = src.minI
	}
	if src.maxI > dst.maxI {
		dst.maxI = src.maxI
	}
	if src.minF < dst.minF {
		dst.minF = src.minF
	}
	if src.maxF > dst.maxF {
		dst.maxF = src.maxF
	}
	if src.minS < dst.minS {
		dst.minS = src.minS
	}
	if src.maxS > dst.maxS {
		dst.maxS = src.maxS
	}
}

// Result materializes the final result and marks the partial finished. For
// grouped queries rows are ordered by group key; non-aggregate rows are
// ordered canonically (ORDER BY keys, then chunk provenance) — both
// deterministic regardless of consumption order.
func (p *Partial) Result() (*Result, error) {
	p.done = true
	res := &Result{Cols: p.q.ColumnNames()}
	if !p.q.IsAggregate() {
		rows := p.rows
		if p.top != nil {
			rows = p.top.entries
		}
		p.sortProws(rows)
		if p.q.Limit > 0 && len(rows) > p.q.Limit {
			rows = rows[:p.q.Limit]
		}
		res.Rows = make([][]Value, len(rows))
		for i := range rows {
			res.Rows[i] = rows[i].vals
		}
		return res, nil
	}
	if len(p.q.GroupBy) == 0 && len(p.groups) == 0 {
		// Scalar aggregate over the empty input.
		p.groups[""] = &group{aggs: make([]aggState, len(p.q.Items))}
	}
	keys := make([]string, 0, len(p.groups))
	for k := range p.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		res.Rows = append(res.Rows, p.finalize(p.groups[k]))
	}
	res.Rows = filterRows(res.Rows, p.q.Having)
	sortRows(res.Rows, p.q.OrderBy)
	if p.q.Limit > 0 && len(res.Rows) > p.q.Limit {
		res.Rows = res.Rows[:p.q.Limit]
	}
	return res, nil
}

// finalize converts one group's aggregate state into output values.
func (p *Partial) finalize(g *group) []Value {
	row := make([]Value, len(p.q.Items))
	keyIdx := map[string]int{}
	for i, gb := range p.q.GroupBy {
		keyIdx[gb.String()] = i
	}
	for i, it := range p.q.Items {
		if it.Agg == AggNone {
			row[i] = g.keys[keyIdx[it.Expr.String()]]
			continue
		}
		st := g.aggs[i]
		var t schema.Type
		if it.Expr != nil {
			t = it.Expr.Type()
		}
		row[i] = finalizeAgg(it.Agg, t, st)
	}
	return row
}

// prowLess is the canonical row order: ORDER BY keys first, then chunk ID,
// then row ordinal within the chunk.
func (p *Partial) prowLess(a, b *prow) bool { return prowLessQ(p.q, a, b) }

// prowLessQ is prowLess as a standalone function, shared with the run merger
// which orders rows across partials it no longer owns.
func prowLessQ(q *Query, a, b *prow) bool {
	for _, k := range q.OrderBy {
		c := compareValues(a.vals[k.Column], b.vals[k.Column])
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	if a.chunk != b.chunk {
		return a.chunk < b.chunk
	}
	return a.row < b.row
}

// sortProws sorts rows into canonical order. The sort is stable so
// duplicate provenance (possible only when a caller feeds chunks with
// duplicate IDs by hand — the operator never does) keeps arrival order.
func (p *Partial) sortProws(rows []prow) {
	sort.SliceStable(rows, func(i, j int) bool { return p.prowLess(&rows[i], &rows[j]) })
}

// topK is a bounded buffer keeping the k first rows in canonical order,
// implemented as a max-heap whose root is the worst retained row. It is the
// LIMIT (with or without ORDER BY) row bound: each partial retains at most
// k rows regardless of how many qualify.
type topK struct {
	p       *Partial
	k       int
	entries []prow
}

// push offers one row. When full, the row replaces the current worst if it
// precedes it canonically.
func (t *topK) push(pr prow) {
	if len(t.entries) < t.k {
		t.entries = append(t.entries, pr)
		t.siftUp(len(t.entries) - 1)
		return
	}
	if t.less(&pr, &t.entries[0]) {
		t.entries[0] = pr
		t.siftDown(0)
	}
}

// less delegates to the owning partial's canonical order; the owner pointer
// is installed lazily because the partial embeds the heap it orders for.
func (t *topK) less(a, b *prow) bool { return t.p.prowLess(a, b) }

func (t *topK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		// Max-heap on the canonical order: a child that sorts after its
		// parent moves up.
		if !t.less(&t.entries[parent], &t.entries[i]) {
			return
		}
		t.entries[parent], t.entries[i] = t.entries[i], t.entries[parent]
		i = parent
	}
}

func (t *topK) siftDown(i int) {
	n := len(t.entries)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && t.less(&t.entries[largest], &t.entries[l]) {
			largest = l
		}
		if r < n && t.less(&t.entries[largest], &t.entries[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		t.entries[i], t.entries[largest] = t.entries[largest], t.entries[i]
		i = largest
	}
}
