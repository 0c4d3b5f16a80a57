package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// Value is a scalar query result cell.
type Value struct {
	Typ   schema.Type
	Int   int64
	Float float64
	Str   string
}

// IntValue builds an Int64 Value.
func IntValue(x int64) Value { return Value{Typ: schema.Int64, Int: x} }

// FloatValue builds a Float64 Value.
func FloatValue(x float64) Value { return Value{Typ: schema.Float64, Float: x} }

// StrValue builds a Str Value.
func StrValue(s string) Value { return Value{Typ: schema.Str, Str: s} }

// String renders the value for result printing.
func (v Value) String() string {
	switch v.Typ {
	case schema.Int64:
		return fmt.Sprintf("%d", v.Int)
	case schema.Float64:
		return fmt.Sprintf("%g", v.Float)
	default:
		return v.Str
	}
}

// AggFunc enumerates the aggregate functions.
type AggFunc uint8

// Aggregate functions. AggNone marks a plain (grouping) expression.
const (
	AggNone AggFunc = iota
	AggSum
	AggCount
	AggMin
	AggMax
	AggAvg
)

func (f AggFunc) String() string {
	return [...]string{"", "SUM", "COUNT", "MIN", "MAX", "AVG"}[f]
}

// SelectItem is one output column of a query: an expression, optionally
// wrapped in an aggregate. A COUNT(*) has Agg=AggCount and Expr=nil.
type SelectItem struct {
	Agg   AggFunc
	Expr  Expr // nil only for COUNT(*)
	Alias string
}

// Name returns the output column name.
func (it SelectItem) Name() string {
	if it.Alias != "" {
		return it.Alias
	}
	if it.Agg != AggNone {
		inner := "*"
		if it.Expr != nil {
			inner = it.Expr.String()
		}
		return it.Agg.String() + "(" + inner + ")"
	}
	return it.Expr.String()
}

// Query is a bound query plan over one raw file / table.
type Query struct {
	Items   []SelectItem
	From    string
	Where   Expr // nil = no predicate; must be boolean (Int64 0/1)
	GroupBy []Expr
	Having  []HavingClause // post-aggregation filters over the select list
	OrderBy []OrderItem    // sort keys over the select list
	Limit   int            // <= 0 means no limit
}

// IsAggregate reports whether any select item aggregates.
func (q *Query) IsAggregate() bool {
	for _, it := range q.Items {
		if it.Agg != AggNone {
			return true
		}
	}
	return len(q.GroupBy) > 0
}

// ColumnNames returns the output column names in select-list order.
func (q *Query) ColumnNames() []string {
	cols := make([]string, len(q.Items))
	for i, it := range q.Items {
		cols[i] = it.Name()
	}
	return cols
}

// RequiredColumns returns the sorted schema ordinals the query touches —
// the set SCANRAW must tokenize and parse (selective conversion).
func (q *Query) RequiredColumns() []int {
	exprs := make([]Expr, 0, len(q.Items)+len(q.GroupBy)+1)
	for _, it := range q.Items {
		if it.Expr != nil {
			exprs = append(exprs, it.Expr)
		}
	}
	exprs = append(exprs, q.GroupBy...)
	if q.Where != nil {
		exprs = append(exprs, q.Where)
	}
	return DedupColumns(exprs...)
}

// Validate checks the query's structural rules.
func (q *Query) Validate() error {
	if len(q.Items) == 0 {
		return fmt.Errorf("engine: query selects nothing")
	}
	if q.Where != nil && q.Where.Type() != schema.Int64 {
		return fmt.Errorf("engine: WHERE must be boolean")
	}
	for _, k := range q.OrderBy {
		if k.Column < 0 || k.Column >= len(q.Items) {
			return fmt.Errorf("engine: ORDER BY column %d out of select-list range", k.Column)
		}
	}
	for _, h := range q.Having {
		if h.Column < 0 || h.Column >= len(q.Items) {
			return fmt.Errorf("engine: HAVING column %d out of select-list range", h.Column)
		}
		if !q.IsAggregate() {
			return fmt.Errorf("engine: HAVING requires aggregation")
		}
	}
	if q.IsAggregate() {
		grouped := map[string]bool{}
		for _, g := range q.GroupBy {
			grouped[g.String()] = true
		}
		for _, it := range q.Items {
			if it.Agg == AggNone && !grouped[it.Expr.String()] {
				return fmt.Errorf("engine: %s is neither aggregated nor in GROUP BY", it.Expr)
			}
			if it.Agg != AggNone && it.Expr == nil && it.Agg != AggCount {
				return fmt.Errorf("engine: %s(*) is only valid for COUNT", it.Agg)
			}
			if it.Agg == AggSum || it.Agg == AggAvg {
				if it.Expr != nil && it.Expr.Type() == schema.Str {
					return fmt.Errorf("engine: %s over string expression", it.Agg)
				}
			}
		}
	}
	return nil
}

// Result is a materialized query result.
type Result struct {
	Cols []string
	Rows [][]Value
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			cells[ri][ci] = v.String()
			if len(cells[ri][ci]) > widths[ci] {
				widths[ci] = len(cells[ri][ci])
			}
		}
	}
	writeLine := func(cells []string) {
		var line strings.Builder
		for i, c := range cells {
			if i > 0 {
				line.WriteString("  ")
			}
			fmt.Fprintf(&line, "%-*s", widths[i], c)
		}
		b.WriteString(strings.TrimRight(line.String(), " "))
		b.WriteByte('\n')
	}
	writeLine(r.Cols)
	for _, row := range cells {
		writeLine(row)
	}
	return b.String()
}

// Executor evaluates a query over binary chunks with one Partial and is the
// engine's only consume-side type. Consume calls come one at a time (the scan
// calls Deliver serially); Bound may be read concurrently with them, from the
// scan's driver. Result finalizes the partial (see Partial for the
// determinism contract).
type Executor struct {
	p     *Partial
	done  bool
	bound BoundHolder
}

// NewExecutor validates q and builds an executor.
func NewExecutor(q *Query, sch *schema.Schema) (*Executor, error) {
	p, err := NewPartial(q, sch)
	if err != nil {
		return nil, err
	}
	e := &Executor{p: p}
	e.bound.active = !q.IsAggregate() && q.Limit > 0 && len(q.OrderBy) > 0
	return e, nil
}

// Consume folds one chunk into the executor's partial.
func (e *Executor) Consume(bc *chunk.BinaryChunk) error {
	_, err := e.ConsumeCounted(bc)
	return err
}

// ConsumeCounted is Consume returning the number of rows that passed the
// WHERE clause. It also publishes the partial's top-k bound.
func (e *Executor) ConsumeCounted(bc *chunk.BinaryChunk) (int, error) {
	if e.done {
		return 0, fmt.Errorf("engine: Consume after Result")
	}
	matched, err := e.p.ConsumeCounted(bc)
	e.bound.update(e.p)
	return matched, err
}

// Bound returns the partial's current top-k cutoff, for ORDER BY ... LIMIT
// chunk pruning. Safe to call concurrently with Consume (the READ goroutine
// does).
func (e *Executor) Bound() ([]Value, bool) { return e.bound.Bound() }

// Result materializes the final result. For grouped queries rows are ordered
// by group key for determinism; a scalar aggregate over zero rows yields one
// row of zero/NaN values.
func (e *Executor) Result() (*Result, error) {
	p, err := e.Finish()
	if err != nil {
		return nil, err
	}
	return p.Result()
}

// Finish returns the raw partial without finalizing it, for callers that
// ship the state over the wire (fleet workers) instead of materializing it.
// After Finish the executor is done.
func (e *Executor) Finish() (*Partial, error) {
	if e.done {
		return nil, fmt.Errorf("engine: Result called twice")
	}
	e.done = true
	return e.p, nil
}

// BoundHolder publishes an executor's top-k cutoff under a mutex, so the
// scan's READ goroutine can consult it for chunk pruning while the delivering
// goroutine keeps consuming. It is inert (Bound always false) unless the
// query is a non-aggregate ORDER BY ... LIMIT, the only shape with a sound
// bound.
type BoundHolder struct {
	mu     sync.Mutex
	active bool
	vals   []Value
	ok     bool
	seen   int // the heap's change count at the last update; only update reads it
}

// update refreshes the holder from p's heap. A top-k heap's worst row only
// ever improves, so the latest bound is the tightest; a chunk that left the
// heap as it was publishes nothing.
func (b *BoundHolder) update(p *Partial) {
	if !b.active || b.seen == p.top.changes {
		return
	}
	b.seen = p.top.changes
	vals, ok := p.Bound()
	if !ok {
		return
	}
	b.mu.Lock()
	b.vals, b.ok = vals, true
	b.mu.Unlock()
}

// Bound returns the published cutoff row (its full select-list values) and
// whether one exists. The returned slice must not be mutated.
func (b *BoundHolder) Bound() ([]Value, bool) {
	if !b.active {
		return nil, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.vals, b.ok
}

func valueAt(v *chunk.Vector, i int) Value {
	switch v.Type {
	case schema.Int64:
		return IntValue(v.Ints[i])
	case schema.Float64:
		return FloatValue(v.Floats[i])
	default:
		return StrValue(v.Strs[i])
	}
}

// appendKey appends a self-delimiting encoding of row r of the key vector.
func appendKey(dst []byte, v *chunk.Vector, r int) []byte {
	switch v.Type {
	case schema.Int64:
		dst = strconv.AppendInt(dst, v.Ints[r], 10)
	case schema.Float64:
		dst = strconv.AppendFloat(dst, v.Floats[r], 'g', -1, 64)
	default:
		dst = append(dst, v.Strs[r]...)
	}
	return append(dst, 0)
}

// acc is one select item's aggregate state over every group of a table: one
// column per field its function finalizes from, indexed by group ordinal —
//
//	COUNT     count
//	SUM       sumI or sumF, by the input's type
//	AVG       count, and sumI or sumF
//	MIN, MAX  ext (the extreme, typed as the input) and seen
//
// A column the function does not keep is nil (for ext: its typed slice), and
// the table's growth leaves it nil. A plain select item keeps nothing: it
// echoes GROUP BY expression key, whose column holds its values.
type acc struct {
	fn    AggFunc
	key   int
	count []int64
	sumI  []int64
	sumF  []float64
	ext   chunk.Vector
	seen  []bool
}

// newAcc builds the empty state of one select item of a query grouped by
// groupBy.
func newAcc(it SelectItem, groupBy []Expr) acc {
	a := acc{fn: it.Agg}
	if it.Agg == AggNone {
		// Validate has checked that a plain item is a GROUP BY expression.
		for k, g := range groupBy {
			if g.String() == it.Expr.String() {
				a.key = k
			}
		}
		return a
	}
	in := schema.Int64
	if it.Expr != nil {
		in = it.Expr.Type()
	}
	if it.Agg == AggCount || it.Agg == AggAvg {
		a.count = []int64{}
	}
	if it.Agg == AggSum || it.Agg == AggAvg {
		if in == schema.Float64 {
			a.sumF = []float64{}
		} else {
			a.sumI = []int64{}
		}
	}
	if it.Agg == AggMin || it.Agg == AggMax {
		a.ext = emptyVector(in)
		a.seen = []bool{}
	}
	return a
}

// emptyVector is a vector of type t and no rows whose typed slice is not nil.
func emptyVector(t schema.Type) chunk.Vector {
	v := chunk.Vector{Type: t}
	switch t {
	case schema.Int64:
		v.Ints = []int64{}
	case schema.Float64:
		v.Floats = []float64{}
	default:
		v.Strs = []string{}
	}
	return v
}

// reserve makes room in a kept column (s not nil) for groups in all.
func reserve[E any](s []E, groups int) []E {
	if s == nil {
		return nil
	}
	return slices.Grow(s, groups-len(s))
}

// extend appends a zero group to a kept column, within its reserved room.
func extend[E any](s []E) []E {
	if s == nil {
		return nil
	}
	return s[:len(s)+1]
}

func reserveVector(v *chunk.Vector, groups int) {
	v.Ints, v.Floats, v.Strs = reserve(v.Ints, groups), reserve(v.Floats, groups), reserve(v.Strs, groups)
}

func (a *acc) reserve(groups int) {
	a.count, a.sumI, a.sumF, a.seen = reserve(a.count, groups), reserve(a.sumI, groups), reserve(a.sumF, groups), reserve(a.seen, groups)
	reserveVector(&a.ext, groups)
}

// extend adds a zero group. Room beyond a column's length was never written
// (reserve zeroes what it adds), so the new group starts from zero.
func (a *acc) extend() {
	a.count, a.sumI, a.sumF, a.seen = extend(a.count), extend(a.sumI), extend(a.sumF), extend(a.seen)
	a.ext.Ints, a.ext.Floats, a.ext.Strs = extend(a.ext.Ints), extend(a.ext.Floats), extend(a.ext.Strs)
}

// update folds the selected rows of v (sel nil: rows 0..len(ords)-1) into
// the item's state: row j goes to group ords[j]. v is nil for COUNT(*), and
// COUNT(x) reads no value either — vectors have no NULLs. Rows are visited
// in order, so each group's float sum accumulates in chunk order.
func (a *acc) update(ords []int32, v *chunk.Vector, sel []int) {
	if a.count != nil {
		for _, o := range ords {
			a.count[o]++
		}
	}
	switch {
	case a.sumI != nil:
		sumOrds(a.sumI, ords, v.Ints, sel)
	case a.sumF != nil:
		sumOrds(a.sumF, ords, v.Floats, sel)
	case a.seen != nil:
		switch isMin := a.fn == AggMin; v.Type {
		case schema.Int64:
			extremeOrds(a.ext.Ints, a.seen, ords, v.Ints, sel, isMin)
		case schema.Float64:
			extremeOrds(a.ext.Floats, a.seen, ords, v.Floats, sel, isMin)
		default:
			extremeOrds(a.ext.Strs, a.seen, ords, v.Strs, sel, isMin)
		}
	}
}

// updateScalar is update for the single group of a query without GROUP BY,
// over a chunk of rows rows.
func (a *acc) updateScalar(v *chunk.Vector, rows int, sel []int) {
	if a.count != nil {
		if sel != nil {
			rows = len(sel)
		}
		a.count[0] += int64(rows)
	}
	switch {
	case a.sumI != nil:
		sumScalar(&a.sumI[0], v.Ints, sel)
	case a.sumF != nil:
		sumScalar(&a.sumF[0], v.Floats, sel)
	case a.seen != nil:
		switch isMin := a.fn == AggMin; v.Type {
		case schema.Int64:
			extremeScalar(&a.ext.Ints[0], &a.seen[0], v.Ints, sel, isMin)
		case schema.Float64:
			extremeScalar(&a.ext.Floats[0], &a.seen[0], v.Floats, sel, isMin)
		default:
			extremeScalar(&a.ext.Strs[0], &a.seen[0], v.Strs, sel, isMin)
		}
	}
}

func sumOrds[T int64 | float64](sums []T, ords []int32, xs []T, sel []int) {
	if sel == nil {
		xs = xs[:len(ords)]
		for j, o := range ords {
			sums[o] += xs[j]
		}
		return
	}
	for j, o := range ords {
		sums[o] += xs[sel[j]]
	}
}

func extremeOrds[T cmp.Ordered](ext []T, seen []bool, ords []int32, xs []T, sel []int, isMin bool) {
	for j, o := range ords {
		r := j
		if sel != nil {
			r = sel[j]
		}
		if x := xs[r]; !seen[o] || beats(isMin, x, ext[o]) {
			ext[o], seen[o] = x, true
		}
	}
}

// sumScalar adds the selected values to *sum. Without a selection the chunk
// is summed on its own and then added, with one the values are added one by
// one: the two orders every float SUM has always used.
func sumScalar[T int64 | float64](sum *T, xs []T, sel []int) {
	if sel == nil {
		var s T
		for _, x := range xs {
			s += x
		}
		*sum += s
		return
	}
	s := *sum
	for _, r := range sel {
		s += xs[r]
	}
	*sum = s
}

func extremeScalar[T cmp.Ordered](ext *T, seen *bool, xs []T, sel []int, isMin bool) {
	e, ok := *ext, *seen
	n := len(xs)
	if sel != nil {
		n = len(sel)
	}
	for j := 0; j < n; j++ {
		r := j
		if sel != nil {
			r = sel[j]
		}
		if x := xs[r]; !ok || beats(isMin, x, e) {
			e, ok = x, true
		}
	}
	*ext, *seen = e, ok
}

// merge folds group so of src, an acc of the same select item, into group do.
// A fresh group (one src's merge has just added) takes src's state as it
// stands: adding to its zeros would turn a -0 float sum into +0.
func (a *acc) merge(do int, src *acc, so int, fresh bool) {
	if fresh {
		a.set(do, src.state(so))
		return
	}
	if a.count != nil {
		a.count[do] += src.count[so]
	}
	if a.sumI != nil {
		a.sumI[do] += src.sumI[so]
	}
	if a.sumF != nil {
		a.sumF[do] += src.sumF[so]
	}
	if a.seen != nil && src.seen[so] && (!a.seen[do] || a.better(&src.ext, so, do)) {
		a.set(do, src.state(so)) // a MIN or MAX keeps nothing but ext and seen
	}
}

// better reports whether row so of ext beats group do's extreme.
func (a *acc) better(ext *chunk.Vector, so, do int) bool {
	switch isMin := a.fn == AggMin; ext.Type {
	case schema.Int64:
		return beats(isMin, ext.Ints[so], a.ext.Ints[do])
	case schema.Float64:
		return beats(isMin, ext.Floats[so], a.ext.Floats[do])
	default:
		return beats(isMin, ext.Strs[so], a.ext.Strs[do])
	}
}

// beats reports whether x replaces the extreme y: strictly below it for a
// MIN, above it for a MAX, so a NaN never replaces one and is never
// replaced.
func beats[T cmp.Ordered](isMin bool, x, y T) bool {
	if isMin {
		return x < y
	}
	return x > y
}

// value finalizes group ord's state into the item's output value.
func (a *acc) value(ord int) Value {
	switch a.fn {
	case AggCount:
		return IntValue(a.count[ord])
	case AggSum:
		if a.sumF != nil {
			return FloatValue(a.sumF[ord])
		}
		return IntValue(a.sumI[ord])
	case AggAvg:
		if a.count[ord] == 0 {
			return FloatValue(math.NaN())
		}
		if a.sumF != nil {
			return FloatValue(a.sumF[ord] / float64(a.count[ord]))
		}
		return FloatValue(float64(a.sumI[ord]) / float64(a.count[ord]))
	case AggMin, AggMax:
		return valueAt(&a.ext, ord)
	}
	return Value{}
}
