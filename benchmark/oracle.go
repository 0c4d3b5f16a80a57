package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"scanraw/internal/gen"
)

// The oracle computes every expected answer without the engine: integer
// datasets from gen.Value's closed form, the SAM dataset from a bytes-level
// scan of the generated file written here. A reply is compared cell by cell;
// a mismatch is a failed operation.

// query is one statement the harness sends, with its expected answer.
type query struct {
	class  string // S1, S2, S3, agg, filter, groupby, topk, limit, ola, stream
	sql    string
	params string // URL query, e.g. "stream=ndjson"
	// rows is the expected row count, checked on every reply.
	rows int
	// want builds the expected content (int64, float64 or string cells); it
	// is called for the first reply to each distinct query.
	want func() [][]any
	// unordered compares as a set of rows keyed by the first cell (GROUP BY
	// emits groups in first-seen order, which the oracle does not model).
	unordered bool
	// tol is the relative tolerance on float cells.
	tol float64
	// olaError and olaSeed are the ?error= and ?seed= of an ola query.
	olaError float64
	olaSeed  int64
}

func (q *query) id() string { return q.sql + "?" + q.params }

// prepare computes the expected content now, so that the oracle's arithmetic
// (a pass over every generated row) does not compete with the daemon for the
// two cores while a loop is being timed.
func (q *query) prepare() *query {
	rows := q.want()
	q.want = func() [][]any { return rows }
	return q
}

func colList(cols []int) string {
	var b bytes.Buffer
	for i, c := range cols {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "c%d", c)
	}
	return b.String()
}

func colRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for c := lo; c < hi; c++ {
		out = append(out, c)
	}
	return out
}

// sumQuery is SELECT SUM(c_a+...+c_z): the paper's benchmark query.
func sumQuery(class string, s gen.CSVSpec, cols []int) *query {
	return &query{
		class: class,
		sql:   "SELECT SUM(" + colList(cols) + ") FROM data",
		rows:  1,
		want:  func() [][]any { return [][]any{{gen.SumRange(s, cols, 0, s.Rows)}} },
	}
}

func filterCountQuery(s gen.CSVSpec, ca, cb int, t int64) *query {
	return &query{
		class: "filter",
		sql:   fmt.Sprintf("SELECT COUNT(c%d) FROM data WHERE c%d < %d", ca, cb, t),
		rows:  1,
		want: func() [][]any {
			var n int64
			for r := 0; r < s.Rows; r++ {
				if gen.Value(s, r, cb) < t {
					n++
				}
			}
			return [][]any{{n}}
		},
	}
}

func groupByQuery(s gen.CSVSpec, ca int) *query {
	return &query{
		class:     "groupby",
		sql:       fmt.Sprintf("SELECT c%d %% 16, COUNT(c%d), SUM(c%d) FROM data GROUP BY c%d %% 16", ca, ca, ca, ca),
		rows:      16,
		unordered: true,
		want: func() [][]any {
			var cnt, tot [16]int64
			for r := 0; r < s.Rows; r++ {
				v := gen.Value(s, r, ca)
				cnt[v%16]++
				tot[v%16] += v
			}
			out := make([][]any, 16)
			for k := range out {
				out[k] = []any{int64(k), cnt[k], tot[k]}
			}
			return out
		},
	}
}

func topKQuery(s gen.CSVSpec, ca, k int) *query {
	return &query{
		class: "topk",
		sql:   fmt.Sprintf("SELECT c%d FROM data ORDER BY c%d LIMIT %d", ca, ca, k),
		rows:  k,
		want: func() [][]any {
			vals := make([]int64, s.Rows)
			for r := range vals {
				vals[r] = gen.Value(s, r, ca)
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			out := make([][]any, k)
			for i := range out {
				out[i] = []any{vals[i]}
			}
			return out
		},
	}
}

func limitQuery(s gen.CSVSpec, ca, cb, n int) *query {
	return &query{
		class: "limit",
		sql:   fmt.Sprintf("SELECT c%d,c%d FROM data LIMIT %d", ca, cb, n),
		rows:  n,
		want: func() [][]any {
			out := make([][]any, n)
			for r := range out {
				out[r] = []any{gen.Value(s, r, ca), gen.Value(s, r, cb)}
			}
			return out
		},
	}
}

// olaQuery asks for AVG within relErr; the reply must be within three times
// that of the true mean (the bound is probabilistic, the check is not).
func olaQuery(s gen.CSVSpec, ca int, relErr float64, seed int64) *query {
	return &query{
		class:  "ola",
		sql:    fmt.Sprintf("SELECT AVG(c%d) FROM data", ca),
		params: fmt.Sprintf("error=%g&seed=%d", relErr, seed),
		rows:   1,
		tol:    3 * relErr,

		olaError: relErr,
		olaSeed:  seed,
		want: func() [][]any {
			return [][]any{{float64(gen.SumRange(s, []int{ca}, 0, s.Rows)) / float64(s.Rows)}}
		},
	}
}

// streamQuery is the NDJSON row stream: four columns of the rows under a
// threshold on a fifth.
func streamQuery(s gen.CSVSpec, cb int, t int64) *query {
	match := func(r int) bool { return gen.Value(s, r, cb) < t }
	n := 0
	for r := 0; r < s.Rows; r++ {
		if match(r) {
			n++
		}
	}
	return &query{
		class:  "stream",
		sql:    fmt.Sprintf("SELECT c0,c1,c2,c3 FROM data WHERE c%d < %d", cb, t),
		params: "stream=ndjson",
		rows:   n,
		want: func() [][]any {
			out := make([][]any, 0, n)
			for r := 0; r < s.Rows; r++ {
				if match(r) {
					out = append(out, []any{gen.Value(s, r, 0), gen.Value(s, r, 1), gen.Value(s, r, 2), gen.Value(s, r, 3)})
				}
			}
			return out
		},
	}
}

// samReference is the independent scan of the generated SAM bytes: the
// count of reads whose CIGAR has a deletion, and per reference name the
// read count and mean mapping quality.
type samReference struct {
	withD  int64
	rnames []string // sorted
	count  map[string]int64
	mapq   map[string]int64
}

func scanSAM(data []byte) (*samReference, error) {
	ref := &samReference{count: map[string]int64{}, mapq: map[string]int64{}}
	for line := 0; len(data) > 0; line++ {
		end := bytes.IndexByte(data, '\n')
		if end < 0 {
			end = len(data)
		}
		fields := bytes.SplitN(data[:end], []byte{'\t'}, 7)
		if len(fields) < 7 {
			return nil, fmt.Errorf("sam reference scan: line %d has %d fields", line, len(fields))
		}
		mq, err := strconv.ParseInt(string(fields[4]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sam reference scan: line %d mapq: %w", line, err)
		}
		rname := string(fields[2])
		ref.count[rname]++
		ref.mapq[rname] += mq
		if bytes.IndexByte(fields[5], 'D') >= 0 {
			ref.withD++
		}
		if end == len(data) {
			break
		}
		data = data[end+1:]
	}
	for r := range ref.count {
		ref.rnames = append(ref.rnames, r)
	}
	sort.Strings(ref.rnames)
	return ref, nil
}

// The statements of sam_sequence.
const (
	samLikeSQL  = "SELECT COUNT(pos) FROM data WHERE cigar LIKE '%D%'"
	samGroupSQL = "SELECT rname, COUNT(pos), AVG(mapq) FROM data GROUP BY rname"
)

func samLikeQuery(class string, ref *samReference) *query {
	return &query{
		class: class,
		sql:   samLikeSQL,
		rows:  1,
		want:  func() [][]any { return [][]any{{ref.withD}} },
	}
}

func samGroupQuery(ref *samReference) *query {
	return &query{
		class:     "S2",
		sql:       samGroupSQL,
		rows:      len(ref.rnames),
		unordered: true,
		tol:       1e-9,
		want: func() [][]any {
			out := make([][]any, len(ref.rnames))
			for i, r := range ref.rnames {
				out[i] = []any{r, ref.count[r], float64(ref.mapq[r]) / float64(ref.count[r])}
			}
			return out
		},
	}
}

// cellKey orders rows of an unordered comparison by their first cell.
func cellKey(c any) string {
	switch v := c.(type) {
	case int64:
		return fmt.Sprintf("i%020d", v)
	case json.Number:
		if n, err := v.Int64(); err == nil {
			return fmt.Sprintf("i%020d", n)
		}
		return "n" + v.String()
	case string:
		return "s" + v
	}
	return fmt.Sprint(c)
}

// compareRows checks a decoded reply (cells are json.Number or string, as
// json.Decoder.UseNumber yields them) against the oracle's rows.
func compareRows(got, want [][]any, unordered bool, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	if unordered {
		got = append([][]any(nil), got...)
		want = append([][]any(nil), want...)
		byKey := func(rows [][]any) {
			sort.Slice(rows, func(i, j int) bool { return cellKey(rows[i][0]) < cellKey(rows[j][0]) })
		}
		byKey(got)
		byKey(want)
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			return fmt.Errorf("row %d has %d cells, want %d", r, len(got[r]), len(want[r]))
		}
		for c, w := range want[r] {
			if err := compareCell(got[r][c], w, tol); err != nil {
				return fmt.Errorf("row %d cell %d: %w", r, c, err)
			}
		}
	}
	return nil
}

func compareCell(got, want any, tol float64) error {
	switch w := want.(type) {
	case int64:
		n, ok := got.(json.Number)
		if !ok {
			return fmt.Errorf("got %v (%T), want integer %d", got, got, w)
		}
		// Int64 rejects "1.8e16": integer answers must arrive exact, not
		// rounded through a float.
		g, err := n.Int64()
		if err != nil || g != w {
			return fmt.Errorf("got %s, want %d", n, w)
		}
	case float64:
		n, ok := got.(json.Number)
		if !ok {
			return fmt.Errorf("got %v (%T), want number %g", got, got, w)
		}
		g, err := n.Float64()
		if err != nil || math.Abs(g-w) > tol*math.Abs(w) {
			return fmt.Errorf("got %s, want %g within %g", n, w, tol)
		}
	case string:
		if g, ok := got.(string); !ok || g != w {
			return fmt.Errorf("got %v, want %q", got, w)
		}
	default:
		return fmt.Errorf("oracle produced a %T cell", want)
	}
	return nil
}
