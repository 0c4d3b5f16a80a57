package engine

import (
	"fmt"
	"sort"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// Partial is a mergeable fragment of query-execution state: selection,
// the aggregation group table, and (for non-aggregate queries) a row buffer —
// bounded by a top-k heap when the query carries a LIMIT. Several partials
// over disjoint chunk subsets can run on independent goroutines (each
// partial is single-consumer) and be combined with Merge into a state whose
// Result is identical to feeding every chunk through one partial serially.
//
// Determinism contract: the final row order of a non-aggregate query is the
// canonical order (ORDER BY keys, then chunk ID, then row ordinal within
// the chunk), and grouped results are ordered by encoded group key — both
// independent of chunk arrival order or partial assignment. Aggregates over
// int64 data are exact; float SUM/AVG accumulate in arrival and merge
// order, so results bit-identical across arrival orders additionally
// require float data whose sums are exact in IEEE-754 (see DESIGN.md §7).
type Partial struct {
	q   *Query
	sch *schema.Schema

	groups *groupTable // aggregate path
	rows   []prow      // non-aggregate path, unbounded (no LIMIT)
	top    *topK       // non-aggregate path, bounded by LIMIT
	done   bool

	sel  []int           // selection scratch, reused across chunks
	cols []*chunk.Vector // project's and consumeRows' select-item vectors, held until releaseProjection
	keyv []*chunk.Vector // consumeAgg's GROUP BY vectors, held until releaseAgg
	aggv []*chunk.Vector // consumeAgg's aggregate-input vectors, likewise
	ords []int32         // consumeAgg's group ordinal per selected row
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
	return newPartial(q, sch, false)
}

// newPartial is NewPartial with the group resolver pinned to the generic one
// when genericGroups is set: the reference the differential tests hold the
// specialised resolvers to.
func newPartial(q *Query, sch *schema.Schema, genericGroups bool) (*Partial, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &Partial{q: q, sch: sch}
	if q.IsAggregate() {
		p.groups = newGroupTable(q, genericGroups)
		vecs := make([]*chunk.Vector, len(q.GroupBy)+len(q.Items))
		p.keyv, p.aggv = vecs[:0:len(q.GroupBy)], vecs[len(q.GroupBy):len(q.GroupBy)]
	} else if q.Limit > 0 {
		p.top = &topK{p: p, k: q.Limit}
	}
	return p, nil
}

// Query returns the query the partial executes.
func (p *Partial) Query() *Query { return p.q }

// ConsumeCounted folds one chunk into the partial and returns the number of
// rows that passed the WHERE clause, the signal demand-driven termination
// needs to decide when a LIMIT is provably met. A partial is
// single-consumer: it must not be called concurrently on the same partial.
func (p *Partial) ConsumeCounted(bc *chunk.BinaryChunk) (int, error) {
	if p.done {
		return 0, fmt.Errorf("engine: Consume after Result")
	}
	sel, err := p.selection(bc)
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

// selection evaluates WHERE into the partial's selection scratch and
// returns the qualifying row ordinals (nil means all rows qualify).
func (p *Partial) selection(bc *chunk.BinaryChunk) ([]int, error) {
	if p.q.Where == nil {
		return nil, nil
	}
	if cap(p.sel) < bc.Rows {
		p.sel = make([]int, bc.Rows)
	}
	return selectWhere(p.q.Where, bc, nil, p.sel[:bc.Rows])
}

func (p *Partial) consumeAgg(bc *chunk.BinaryChunk, sel []int) error {
	n := bc.Rows
	if sel != nil {
		if n = len(sel); n == 0 {
			return nil
		}
	}
	// Evaluate group-by keys and aggregate inputs once per chunk. A plain
	// item is a GROUP BY key (Validate), whose value Result takes from the
	// key column, and a COUNT of a bare column counts rows: neither is
	// evaluated here, so the chunk need not hold a column only COUNT names.
	defer p.releaseAgg()
	for _, g := range p.q.GroupBy {
		v, err := g.Eval(bc)
		if err != nil {
			return err
		}
		p.keyv = append(p.keyv, v)
	}
	for _, it := range p.q.Items {
		var v *chunk.Vector
		if it.Agg != AggNone && !it.countsRows() {
			var err error
			if v, err = it.Expr.Eval(bc); err != nil {
				return err
			}
		}
		p.aggv = append(p.aggv, v)
	}
	t := p.groups
	if t.kind == resolveScalar {
		// Scalar aggregation: one group, bulk loops over the vectors.
		// This is the hot path for the paper's SUM benchmark query; it
		// must stay cheap enough that SCANRAW, not the engine, is the
		// measured component.
		t.scalar()
		for i, it := range p.q.Items {
			if it.Agg != AggNone {
				t.accs[i].updateScalar(p.aggv[i], bc.Rows, sel)
			}
		}
		return nil
	}
	// Grouped aggregation in two passes: every selected row's group
	// ordinal first, then one tight loop per aggregate over (ordinal,
	// value).
	if cap(p.ords) < n {
		p.ords = make([]int32, n)
	}
	ords := p.ords[:n]
	t.resolve(p.keyv, sel, ords)
	for i, it := range p.q.Items {
		if it.Agg != AggNone {
			t.accs[i].update(ords, p.aggv[i], sel)
		}
	}
	return nil
}

// releaseAgg returns consumeAgg's scratch vectors to their pool. A failed
// evaluation leaves the slices short, never misaligned: keyv[i] belongs to
// GroupBy[i] and aggv[i] to Items[i].
func (p *Partial) releaseAgg() {
	for i, v := range p.keyv {
		releaseScratch(p.q.GroupBy[i], v)
	}
	for i, v := range p.aggv {
		if v != nil {
			releaseScratch(p.q.Items[i].Expr, v)
		}
	}
	p.keyv, p.aggv = p.keyv[:0], p.aggv[:0]
}

func (p *Partial) consumeRows(bc *chunk.BinaryChunk, sel []int) error {
	defer p.releaseProjection()
	for _, it := range p.q.Items {
		v, err := it.Expr.Eval(bc)
		if err != nil {
			return err
		}
		p.cols = append(p.cols, v)
	}
	// Without ORDER BY a chunk's rows arrive in canonical order, so the
	// first row a full heap turns away ends the chunk, and a chunk after the
	// root's cannot enter at all. With it, a full heap takes only rows the
	// candidate pass lets through.
	inOrder := len(p.q.OrderBy) == 0
	if t := p.top; t != nil && len(t.entries) == t.k {
		if inOrder {
			if bc.ID > t.entries[0].chunk {
				return nil
			}
		} else if cand, ok := p.topCandidates(bc, sel); ok {
			sel = cand
		}
	}
	n := bc.Rows
	if sel != nil {
		n = len(sel)
	}
	for i := 0; i < n; i++ {
		r := i
		if sel != nil {
			r = sel[i]
		}
		if !p.offer(bc.ID, r) && inOrder {
			break
		}
	}
	return nil
}

// offer hands row r of chunk id, whose select-item vectors are p.cols, to
// the row buffer or the top-k heap. It reports false when a full heap
// turned the row away, which it does before materialising the row.
func (p *Partial) offer(id, r int) bool {
	if p.top != nil && !p.top.admits(p.cols, id, r) {
		return false
	}
	row := make([]Value, len(p.cols))
	for i, v := range p.cols {
		row[i] = valueAt(v, r)
	}
	pr := prow{chunk: id, row: r, vals: row}
	if p.top != nil {
		p.top.push(pr)
	} else {
		p.rows = append(p.rows, pr)
	}
	return true
}

// topCandidates narrows sel (nil: every row of bc) to the rows a full top-k
// heap has to compare one by one, in one selection pass over the first
// ORDER BY key when its vector is numeric: a row whose key sorts strictly
// after the root's cannot enter, and the root only tightens while the chunk
// is offered, so the rows kept are a superset of those the heap will admit.
// Ties and unordered pairs (a NaN on either side) pass and meet the exact
// comparison. ok is false for a string key, which keeps the row loop. The
// candidates are written to the selection scratch, over sel if need be: the
// kernel never writes ahead of the row it reads.
func (p *Partial) topCandidates(bc *chunk.BinaryChunk, sel []int) (cand []int, ok bool) {
	k := p.q.OrderBy[0]
	v, root := p.cols[k.Column], p.top.entries[0].vals[k.Column]
	if v.Type != root.Typ || v.Type == schema.Str {
		return nil, false
	}
	keep := OpLe
	if k.Desc {
		keep = OpGe
	}
	if cap(p.sel) < bc.Rows {
		p.sel = make([]int, bc.Rows)
	}
	dst := p.sel[:bc.Rows]
	if v.Type == schema.Int64 {
		return dst[:selectInts(keep, dst, sel, v, bc.Rows, root.Int)], true
	}
	return dst[:selectScalar(keep, dst, sel, v.Floats[:bc.Rows], root.Float)], true
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
	if sel, err = p.selection(bc); err != nil {
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
	for i, v := range p.cols {
		releaseScratch(p.q.Items[i].Expr, v)
	}
	p.cols = p.cols[:0]
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
		p.groups.merge(o.groups)
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
	t := p.groups
	if t.kind == resolveScalar {
		t.scalar() // a scalar aggregate over the empty input still yields a row
	}
	w := len(t.accs)
	cells := make([]Value, t.n*w)
	res.Rows = make([][]Value, t.n)
	for i, k := range t.sorted() {
		res.Rows[i] = cells[i*w:][:w:w]
		p.finalize(res.Rows[i], k.ord)
	}
	res.Rows = filterRows(res.Rows, p.q.Having)
	sortRows(res.Rows, p.q.OrderBy)
	if p.q.Limit > 0 && len(res.Rows) > p.q.Limit {
		res.Rows = res.Rows[:p.q.Limit]
	}
	return res, nil
}

// finalize converts group ord's key values and aggregate state into one
// output row.
func (p *Partial) finalize(row []Value, ord int) {
	t := p.groups
	for i := range t.accs {
		if a := &t.accs[i]; a.fn == AggNone {
			row[i] = valueAt(&t.keys[a.key], ord)
		} else {
			row[i] = a.value(ord)
		}
	}
}

// prowLess is the canonical row order: ORDER BY keys first, then chunk ID,
// then row ordinal within the chunk.
func (p *Partial) prowLess(a, b *prow) bool {
	for _, k := range p.q.OrderBy {
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
	changes int // pushes that changed the heap: the bound is copied out only when this moved
}

// push offers one row. When full, the row replaces the current worst if it
// precedes it canonically.
func (t *topK) push(pr prow) {
	if len(t.entries) < t.k {
		t.entries = append(t.entries, pr)
		t.siftUp(len(t.entries) - 1)
		t.changes++
		return
	}
	if t.less(&pr, &t.entries[0]) {
		t.entries[0] = pr
		t.siftDown(0)
		t.changes++
	}
}

// admits reports whether push would keep row r of chunk id, whose select-item
// vectors are vecs: always while the heap has room, and once it is full only
// a row that precedes the root in canonical order (prowLess's, spelled out
// over the order-key vectors and the provenance — going through a prow of
// Values here halves the top-k scan rate), so a row the heap turns away is
// never materialised.
func (t *topK) admits(vecs []*chunk.Vector, id, r int) bool {
	if len(t.entries) < t.k {
		return true
	}
	root := &t.entries[0]
	for _, k := range t.p.q.OrderBy {
		c := compareValues(valueAt(vecs[k.Column], r), root.vals[k.Column])
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	if id != root.chunk {
		return id < root.chunk
	}
	return r < root.row
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
