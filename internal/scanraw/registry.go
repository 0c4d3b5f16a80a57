package scanraw

import (
	"context"
	"slices"
	"sync"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	"scanraw/internal/schema"
)

// Registry holds the live SCANRAW operators, one per raw file. When a new
// query arrives the execution engine first checks for an existing operator
// and connects it to the plan; only otherwise is one created. An operator
// whose file is completely loaded is deleted — the table has become an
// ordinary database table (§3.3).
//
// Every query of the embedded facade and of cmd/scanraw resolves its
// operator here, so lookups take a read lock and Sweep never blocks the map
// on operator-level waits.
type Registry struct {
	store *dbstore.Store

	mu  sync.RWMutex
	ops map[string]*Operator
}

// NewRegistry creates an empty operator registry over a store.
func NewRegistry(store *dbstore.Store) *Registry {
	return &Registry{store: store, ops: make(map[string]*Operator)}
}

// Operator returns the live operator for the table, creating one with cfg
// if none exists. The configuration of an existing operator is not
// changed.
func (r *Registry) Operator(table *dbstore.Table, cfg Config) *Operator {
	r.mu.RLock()
	op, ok := r.ops[table.RawFile()]
	r.mu.RUnlock()
	if ok {
		return op
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if op, ok := r.ops[table.RawFile()]; ok {
		return op
	}
	op = New(r.store, table, cfg)
	r.ops[table.RawFile()] = op
	return op
}

// Lookup returns the live operator for a raw file, if any.
func (r *Registry) Lookup(rawFile string) (*Operator, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	op, ok := r.ops[rawFile]
	return op, ok
}

// Sweep deletes operators whose raw file is completely loaded into the
// database; their state (cache, buffers) is no longer useful because every
// future query is a plain heap scan. It returns how many were deleted.
//
// Sweep is safe against concurrent queries: it snapshots the operator set,
// waits for background flushes without holding the registry lock, and
// skips operators that are mid-query (deleting one would let a later query
// create a second operator over the same file and race it on the catalog).
func (r *Registry) Sweep() int {
	r.mu.RLock()
	snapshot := make(map[string]*Operator, len(r.ops))
	for key, op := range r.ops {
		snapshot[key] = op
	}
	r.mu.RUnlock()

	n := 0
	for key, op := range snapshot {
		op.WaitIdle()
		if !op.Table().FullyLoaded() {
			continue
		}
		// Claim exclusive run ownership without blocking: a busy operator
		// is simply skipped and reconsidered on the next Sweep.
		if !op.runMu.TryLock() {
			continue
		}
		r.mu.Lock()
		if r.ops[key] == op {
			delete(r.ops, key)
			n++
		}
		r.mu.Unlock()
		op.runMu.Unlock()
	}
	return n
}

// Len returns the number of live operators.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ops)
}

// ExecuteQuery runs a bound query through the operator and returns its
// result set: the operator feeds binary chunks to an engine executor
// (selective conversion of exactly the query's required columns), applying
// min/max chunk elimination derived from the predicate.
func ExecuteQuery(op *Operator, q *engine.Query) (*engine.Result, RunStats, error) {
	return ExecuteQueryContext(context.Background(), op, q)
}

// ExecuteQueryContext is ExecuteQuery with cancellation: a cancelled
// context stops the scan at the next chunk boundary and is returned as the
// error.
func ExecuteQueryContext(ctx context.Context, op *Operator, q *engine.Query) (*engine.Result, RunStats, error) {
	return ExecuteQueryRangeContext(ctx, op, q, nil)
}

// ExecuteQueryRangeContext is ExecuteQueryContext restricted to a chunk
// range: only chunks with rng.Lo <= ID < rng.Hi contribute to the result,
// which is how a fleet worker evaluates a query over the sub-file it owns.
// The LIMIT demand frontier starts at the range's lower bound, so early
// termination stays sound within the peer's chunk universe. A nil range is
// the whole file.
func ExecuteQueryRangeContext(ctx context.Context, op *Operator, q *engine.Query, rng *ChunkRange) (*engine.Result, RunStats, error) {
	ex, err := engine.NewExecutor(q, op.Table().Schema())
	if err != nil {
		return nil, RunStats{}, err
	}
	m := Member{Query: q, Consumer: ex, Range: rng}
	st, err := op.RunContext(ctx, m.Request(ctx))
	if err != nil {
		return nil, st, err
	}
	res, err := ex.Result()
	return res, st, err
}

// Consumer is what a query brings to a scan: something to feed chunks to
// that reports how many rows of each qualified (the count advances the
// LIMIT frontier). The engine executor, the server's row emitter and the
// online-aggregation runner all satisfy it. A Consumer that also exposes a
// top-k cutoff (Bound, as the engine executor does) gets ORDER BY ... LIMIT
// chunk pruning.
type Consumer interface {
	ConsumeCounted(bc *BinaryChunk) (int, error)
}

// Member is one query entering a scan, alone or beside others in a shared
// one. Request turns it into the operator's Request; it is the only place a
// query's columns, chunk elimination and demand-driven termination are
// wired, so every caller — ExecuteQuery, ExecuteQueries, the server's
// coalescer and /exec, online aggregation — gets the same rules.
type Member struct {
	Query    *engine.Query
	Consumer Consumer
	// Range restricts the scan (nil = whole file); the LIMIT frontier
	// starts at its lower bound. Order replaces the file-order walk with a
	// sample permutation; a sampled member carries no chunk elimination,
	// because a statistics-pruned chunk would be a hole in the sample that
	// biases every estimate.
	Range *ChunkRange
	Order func(numChunks int) []int

	// The hooks are what differs between callers; each may be nil.
	//
	// OnSkip observes every chunk the predicate's statistics eliminate —
	// a reorder frontier must step over chunks that will never arrive.
	OnSkip func(chunkID int)
	// Done reports that the member wants no more chunks for a reason the
	// demand layer cannot see: its client is gone, its stream LIMIT is
	// met, its estimate converged. It must be monotonic. With Done set the
	// request always carries a Satisfied signal, so a shared scan whose
	// every member is done or demand-satisfied stops before end-of-file.
	Done func() bool
	// OnError receives the member's own failure (a consume error, its
	// context ending) instead of the scan: the scan carries on for the
	// other members. Nil fails the scan.
	OnError func(error)
}

// ScanColumns returns the columns a cold scan for q converts: the ones it
// requires, or the first alone for a COUNT(*)-style query, which touches no
// column but still needs every row scanned — converting the first column is
// the cheapest way. A loaded chunk need not hold all of them: Member.Request
// splits off the columns only a COUNT names (countedColumns).
func ScanColumns(q *engine.Query) []int {
	if cols := q.RequiredColumns(); len(cols) > 0 {
		return cols
	}
	return []int{0}
}

// countedColumns splits ScanColumns(q) into the columns whose values q reads
// and those only a COUNT(<bare column>) names, which Request.counted carries.
// A query that reads no value, such as SELECT COUNT(c3) FROM t, keeps them
// all as its read set, as ScanColumns has it: a chunk is served from at
// least one column, and its rows are counted from that one.
func countedColumns(q *engine.Query) (read, counted []int) {
	all, read := ScanColumns(q), q.ReadColumns()
	if len(read) == 0 {
		return all, nil
	}
	for _, c := range all {
		if _, found := slices.BinarySearch(read, c); !found {
			counted = append(counted, c)
		}
	}
	return read, counted
}

// Request builds the member's scan request. ctx is the member's own
// context, which for a shared scan is not the scan's.
func (m Member) Request(ctx context.Context) Request {
	q := m.Query
	cols, counted := countedColumns(q)
	var skip func(*dbstore.ChunkMeta) bool
	if base := SkipFromPredicate(q.Where); base != nil && m.Order == nil {
		skip = base
		if m.OnSkip != nil {
			skip = func(meta *dbstore.ChunkMeta) bool {
				if base(meta) {
					m.OnSkip(meta.ID)
					return true
				}
				return false
			}
		}
	}
	bound, _ := m.Consumer.(boundSource)
	dem := NewDemandFrom(q, bound, m.Range.start())
	done, satisfied := dem.IsSatisfied, dem.SatisfiedFn()
	if m.Done != nil {
		done = func() bool { return m.Done() || dem.IsSatisfied() }
		satisfied = done
	}
	fail := func(err error) error {
		if m.OnError == nil {
			return err
		}
		m.OnError(err)
		return nil
	}
	return Request{
		Columns:   cols,
		Skip:      dem.WrapSkip(skip),
		Satisfied: satisfied,
		Range:     m.Range,
		Order:     m.Order,
		counted:   counted,
		Deliver: func(bc *BinaryChunk) error {
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
			if done() {
				// Surplus chunk already in flight when the member finished:
				// it provably cannot change the result.
				return nil
			}
			matched, err := m.Consumer.ConsumeCounted(bc)
			if err != nil {
				return fail(err)
			}
			dem.RecordChunk(bc.ID, matched)
			return nil
		},
	}
}

// ExecuteSQL parses sql against the table's schema and executes it through
// the registry's operator for that table.
func (r *Registry) ExecuteSQL(table *dbstore.Table, cfg Config, sql string) (*engine.Result, RunStats, error) {
	return r.ExecuteSQLContext(context.Background(), table, cfg, sql)
}

// ExecuteSQLContext is ExecuteSQL with cancellation.
func (r *Registry) ExecuteSQLContext(ctx context.Context, table *dbstore.Table, cfg Config, sql string) (*engine.Result, RunStats, error) {
	q, err := engine.ParseSQL(sql, table.Schema())
	if err != nil {
		return nil, RunStats{}, err
	}
	return ExecuteQueryContext(ctx, r.Operator(table, cfg), q)
}

// SkipFromPredicate derives a chunk-elimination filter from a query
// predicate using the catalog's per-chunk min/max statistics (§3.3): a
// chunk is skipped when a conjunct of the form <column> <cmp> <integer
// literal> provably matches no tuple of the chunk. A nil or unanalyzable
// predicate yields nil (no skipping).
func SkipFromPredicate(where engine.Expr) func(*dbstore.ChunkMeta) bool {
	ranges := collectRanges(where)
	if len(ranges) == 0 {
		return nil
	}
	return func(meta *dbstore.ChunkMeta) bool {
		for _, rg := range ranges {
			if rg.col >= len(meta.Stats) {
				continue
			}
			if !meta.Stats[rg.col].MayContainInt(rg.lo, rg.hi) {
				return true // no tuple can satisfy this conjunct
			}
		}
		return false
	}
}

type colRange struct {
	col    int
	lo, hi int64
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

// collectRanges walks AND-connected comparisons of a column against an
// integer constant and converts each into the value range a qualifying
// tuple must lie in.
func collectRanges(e engine.Expr) []colRange {
	switch v := e.(type) {
	case nil:
		return nil
	case *engine.Logic:
		if v.Op == engine.OpAnd {
			return append(collectRanges(v.L), collectRanges(v.R)...)
		}
		return nil
	case *engine.Cmp:
		col, konst, op, ok := normalizeCmp(v)
		if !ok {
			return nil
		}
		switch op {
		case engine.OpEq:
			return []colRange{{col, konst, konst}}
		case engine.OpLt:
			if konst == minInt64 {
				return nil
			}
			return []colRange{{col, minInt64, konst - 1}}
		case engine.OpLe:
			return []colRange{{col, minInt64, konst}}
		case engine.OpGt:
			if konst == maxInt64 {
				return nil
			}
			return []colRange{{col, konst + 1, maxInt64}}
		case engine.OpGe:
			return []colRange{{col, konst, maxInt64}}
		default: // OpNe excludes almost nothing
			return nil
		}
	default:
		return nil
	}
}

// normalizeCmp extracts (column, constant, operator-with-column-on-left)
// from a comparison when one side is a bare integer-typed column and the
// other an integer literal.
func normalizeCmp(c *engine.Cmp) (col int, konst int64, op engine.CmpOp, ok bool) {
	if l, isCol := c.L.(*engine.Col); isCol && l.Typ == schema.Int64 {
		if r, isConst := c.R.(*engine.Const); isConst && r.Typ == schema.Int64 {
			return l.Idx, r.Int, c.Op, true
		}
	}
	if r, isCol := c.R.(*engine.Col); isCol && r.Typ == schema.Int64 {
		if l, isConst := c.L.(*engine.Const); isConst && l.Typ == schema.Int64 {
			return r.Idx, l.Int, flipCmp(c.Op), true
		}
	}
	return 0, 0, 0, false
}

func flipCmp(op engine.CmpOp) engine.CmpOp {
	switch op {
	case engine.OpLt:
		return engine.OpGt
	case engine.OpLe:
		return engine.OpGe
	case engine.OpGt:
		return engine.OpLt
	case engine.OpGe:
		return engine.OpLe
	default:
		return op
	}
}
