package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"

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

// aggState accumulates one aggregate for one group.
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

// Executor evaluates a query over binary chunks with a pool of mergeable
// partials and is the engine's only consume-side type. Each ConsumeCounted
// checks an idle partial out of the pool, folds the chunk into it and returns
// it, so up to width chunks are evaluated at once and the next caller blocks
// until a partial frees up — the natural backpressure for delivery fan-out.
// At width 1 (NewExecutor) that is serial evaluation: concurrent callers
// simply take turns.
//
// Result drains the pool — waiting for in-flight consumes — then merges the
// partials in creation order and finalizes. Every width evaluates through
// Partial, so all widths agree by construction (see Partial for the
// determinism contract and the float-summation caveat).
type Executor struct {
	all []*Partial
	// one backs all at width 1, and idle carries indices into all (of the
	// partials no Consume holds) rather than pointers, so a width-1 executor
	// allocates no more than the bare partial did (TestGroupByAllocs).
	one   [1]*Partial
	idle  chan int
	done  atomic.Bool
	bound BoundHolder
}

// NewExecutor validates q and builds a width-1 executor.
func NewExecutor(q *Query, sch *schema.Schema) (*Executor, error) {
	return NewExecutorN(q, sch, 1)
}

// NewExecutorN is NewExecutor with width partials (at least one): the number
// of chunks that may be consumed concurrently.
func NewExecutorN(q *Query, sch *schema.Schema, width int) (*Executor, error) {
	width = max(width, 1)
	e := &Executor{idle: make(chan int, width)}
	e.bound.bind(q)
	e.all = e.one[:]
	if width > 1 {
		e.all = make([]*Partial, width)
	}
	for i := range e.all {
		p, err := NewPartial(q, sch)
		if err != nil {
			return nil, err
		}
		e.all[i] = p
		e.idle <- i
	}
	return e, nil
}

// Consume folds one chunk into an idle partial. Safe to call from many
// goroutines concurrently.
func (e *Executor) Consume(bc *chunk.BinaryChunk) error {
	_, err := e.ConsumeCounted(bc)
	return err
}

// ConsumeCounted is Consume returning the number of rows that passed the
// WHERE clause. It also refreshes the shared top-k bound while the partial
// is still checked out, so Bound never races a concurrent Consume.
func (e *Executor) ConsumeCounted(bc *chunk.BinaryChunk) (int, error) {
	if e.done.Load() {
		return 0, fmt.Errorf("engine: Consume after Result")
	}
	i := <-e.idle
	p := e.all[i]
	matched, err := p.ConsumeCounted(bc)
	e.bound.Update(p)
	e.idle <- i
	return matched, err
}

// Bound returns the tightest top-k cutoff any single partial has
// established, for ORDER BY ... LIMIT chunk pruning. Safe to call
// concurrently with Consume (the READ goroutine does).
func (e *Executor) Bound() ([]Value, bool) { return e.bound.Bound() }

// Result waits for in-flight Consume calls, merges every partial, and
// materializes the final result. For grouped queries rows are ordered by
// group key for determinism; a scalar aggregate over zero rows yields one
// row of zero/NaN values. Partials are merged in creation order so the merge
// sequence does not depend on scheduling (chunk→partial assignment still
// does; see Partial on float summation).
func (e *Executor) Result() (*Result, error) {
	parts, err := e.Finish()
	if err != nil {
		return nil, err
	}
	root, err := MergePartials(parts)
	if err != nil {
		return nil, err
	}
	return root.Result()
}

// Finish waits for in-flight Consume calls and returns the raw partials
// without merging them, for callers that stream the merged output (see
// RunMerger) or ship the state over the wire (fleet workers) instead of
// materializing it. After Finish the executor is done.
func (e *Executor) Finish() ([]*Partial, error) {
	if e.done.Swap(true) {
		return nil, fmt.Errorf("engine: Result called twice")
	}
	// Every Consume that started before done was set will return its
	// partial; draining the pool is the rendezvous.
	for range e.all {
		<-e.idle
	}
	return e.all, nil
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

// addInt, addFloat and addStr fold one input value into the state. Every
// field the value's type can feed is kept up to date whatever the aggregate
// function, because the wire carries them all.
func (st *aggState) addInt(x int64) {
	st.count++
	st.sumInt += x
	if !st.seen || x < st.minI {
		st.minI = x
	}
	if !st.seen || x > st.maxI {
		st.maxI = x
	}
	st.seen = true
}

func (st *aggState) addFloat(x float64) {
	st.count++
	st.sumFloat += x
	if !st.seen || x < st.minF {
		st.minF = x
	}
	if !st.seen || x > st.maxF {
		st.maxF = x
	}
	st.seen = true
}

func (st *aggState) addStr(x string) {
	st.count++
	if !st.seen || x < st.minS {
		st.minS = x
	}
	if !st.seen || x > st.maxS {
		st.maxS = x
	}
	st.seen = true
}

// updateAggOrds folds the selected rows of v (nil for COUNT(*); sel nil:
// rows 0..len(ords)-1) into one select item's states: row j goes to group
// ords[j], whose state is aggs[ords[j]*width]. The input type is switched on
// once, and rows are visited in order, so each group's float sum accumulates
// in the order a row-at-a-time loop would have used.
func updateAggOrds(aggs []aggState, width int, ords []int32, v *chunk.Vector, sel []int) {
	switch {
	case v == nil:
		for _, o := range ords {
			aggs[int(o)*width].count++
		}
	case v.Type == schema.Int64 && sel == nil:
		for j, o := range ords {
			aggs[int(o)*width].addInt(v.Ints[j])
		}
	case v.Type == schema.Int64:
		for j, o := range ords {
			aggs[int(o)*width].addInt(v.Ints[sel[j]])
		}
	case v.Type == schema.Float64 && sel == nil:
		for j, o := range ords {
			aggs[int(o)*width].addFloat(v.Floats[j])
		}
	case v.Type == schema.Float64:
		for j, o := range ords {
			aggs[int(o)*width].addFloat(v.Floats[sel[j]])
		}
	case sel == nil:
		for j, o := range ords {
			aggs[int(o)*width].addStr(v.Strs[j])
		}
	default:
		for j, o := range ords {
			aggs[int(o)*width].addStr(v.Strs[sel[j]])
		}
	}
}

// updateAggBulk folds an entire vector (or its selection) into st.
func updateAggBulk(st *aggState, v *chunk.Vector, rows int, sel []int) {
	if v == nil { // COUNT(*)
		if sel != nil {
			st.count += int64(len(sel))
		} else {
			st.count += int64(rows)
		}
		return
	}
	if sel != nil {
		switch v.Type {
		case schema.Int64:
			for _, r := range sel {
				st.addInt(v.Ints[r])
			}
		case schema.Float64:
			for _, r := range sel {
				st.addFloat(v.Floats[r])
			}
		default:
			for _, r := range sel {
				st.addStr(v.Strs[r])
			}
		}
		return
	}
	st.count += int64(rows)
	switch v.Type {
	case schema.Int64:
		var sum int64
		mn, mx := st.minI, st.maxI
		if !st.seen && len(v.Ints) > 0 {
			mn, mx = v.Ints[0], v.Ints[0]
		}
		for _, x := range v.Ints {
			sum += x
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		st.sumInt += sum
		st.minI, st.maxI = mn, mx
	case schema.Float64:
		var sum float64
		mn, mx := st.minF, st.maxF
		if !st.seen && len(v.Floats) > 0 {
			mn, mx = v.Floats[0], v.Floats[0]
		}
		for _, x := range v.Floats {
			sum += x
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		st.sumFloat += sum
		st.minF, st.maxF = mn, mx
	case schema.Str:
		for _, x := range v.Strs {
			if !st.seen || x < st.minS {
				st.minS = x
			}
			if !st.seen || x > st.maxS {
				st.maxS = x
			}
			st.seen = true
		}
		return
	}
	if rows > 0 {
		st.seen = true
	}
}

// finalizeAgg converts one finished aggregate state into its output value;
// t is the aggregated expression's type (zero for COUNT(*)).
func finalizeAgg(f AggFunc, t schema.Type, st aggState) Value {
	switch f {
	case AggCount:
		return IntValue(st.count)
	case AggSum:
		if t == schema.Float64 {
			return FloatValue(st.sumFloat)
		}
		return IntValue(st.sumInt)
	case AggAvg:
		if st.count == 0 {
			return FloatValue(math.NaN())
		}
		if t == schema.Float64 {
			return FloatValue(st.sumFloat / float64(st.count))
		}
		return FloatValue(float64(st.sumInt) / float64(st.count))
	case AggMin:
		switch t {
		case schema.Int64:
			return IntValue(st.minI)
		case schema.Float64:
			return FloatValue(st.minF)
		default:
			return StrValue(st.minS)
		}
	case AggMax:
		switch t {
		case schema.Int64:
			return IntValue(st.maxI)
		case schema.Float64:
			return FloatValue(st.maxF)
		default:
			return StrValue(st.maxS)
		}
	}
	return Value{}
}
