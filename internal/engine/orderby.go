package engine

import (
	"fmt"
	"math"
	"sort"

	"scanraw/internal/schema"
)

// OrderItem is one ORDER BY key: an output-column reference with
// direction. Keys refer to select-list items, either by alias/rendered
// name or 1-based ordinal, matching common SQL practice for aggregate
// queries.
type OrderItem struct {
	// Column is the select-list ordinal the key sorts by.
	Column int
	// Desc sorts descending when set.
	Desc bool
}

// resolveOrderKey binds one parsed ORDER BY or HAVING key (name or
// ordinal) to a select-list ordinal; clause names the clause in errors. call
// marks a name followed by "(": an aggregate written out where the clause
// takes a select-list name.
func resolveOrderKey(items []SelectItem, clause, name string, ordinal int, call bool) (int, error) {
	if name == "" {
		if ordinal < 1 || ordinal > len(items) {
			return 0, fmt.Errorf("engine: %s position %d out of range [1,%d]", clause, ordinal, len(items))
		}
		return ordinal - 1, nil
	}
	if call {
		return 0, fmt.Errorf("engine: %s cannot compute %s(...): name the aggregate in the select list with AS and use that name", clause, name)
	}
	for i, it := range items {
		if it.Alias == name || it.Name() == name {
			return i, nil
		}
		if it.Agg == AggNone {
			if col, ok := it.Expr.(*Col); ok && col.Name == name {
				return i, nil
			}
		}
	}
	return 0, fmt.Errorf("engine: %s key %q does not name a select-list column", clause, name)
}

// compareValues orders two result cells of the same type. Floats use a
// total order (NaN sorts before every number and equals itself) so sorting
// stays transitive — and therefore deterministic — whatever order partial
// executors contributed rows in.
func compareValues(a, b Value) int {
	switch a.Typ {
	case schema.Int64:
		switch {
		case a.Int < b.Int:
			return -1
		case a.Int > b.Int:
			return 1
		}
	case schema.Float64:
		switch {
		case a.Float < b.Float:
			return -1
		case a.Float > b.Float:
			return 1
		case a.Float == b.Float:
			return 0
		}
		// At least one side is NaN.
		an, bn := math.IsNaN(a.Float), math.IsNaN(b.Float)
		switch {
		case an && !bn:
			return -1
		case bn && !an:
			return 1
		}
	case schema.Str:
		switch {
		case a.Str < b.Str:
			return -1
		case a.Str > b.Str:
			return 1
		}
	}
	return 0
}

// HavingClause filters aggregated result rows: output column <cmp>
// literal. This deliberately small HAVING subset covers the common
// post-aggregation filters (COUNT(*) > n, SUM(x) >= y) without a second
// expression-binding pass over output columns.
type HavingClause struct {
	// Column is the select-list ordinal the predicate tests.
	Column int
	// Op is the comparison operator.
	Op CmpOp
	// Value is the literal compared against.
	Value Value
}

// eval applies the clause to one result row.
func (h HavingClause) eval(row []Value) bool {
	c := compareValues(row[h.Column], h.Value)
	switch h.Op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// filterRows applies HAVING clauses (ANDed) in place.
func filterRows(rows [][]Value, clauses []HavingClause) [][]Value {
	if len(clauses) == 0 {
		return rows
	}
	out := rows[:0]
	for _, row := range rows {
		keep := true
		for _, h := range clauses {
			if !h.eval(row) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, row)
		}
	}
	return out
}

// sortRows applies the ORDER BY keys to a materialized result. The sort is
// stable so ties keep the engine's deterministic group ordering.
func sortRows(rows [][]Value, keys []OrderItem) {
	if len(keys) == 0 {
		return
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			c := compareValues(rows[i][k.Column], rows[j][k.Column])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
}
