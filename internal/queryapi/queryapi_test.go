package queryapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"scanraw/internal/engine"
	"scanraw/internal/schema"
)

func iv(i int64) engine.Value   { return engine.Value{Typ: schema.Int64, Int: i} }
func fv(f float64) engine.Value { return engine.Value{Typ: schema.Float64, Float: f} }
func sv(s string) engine.Value  { return engine.Value{Typ: schema.Str, Str: s} }

// flushCounter is a ResponseRecorder that counts Write and Flush calls and
// keeps the bytes of the latest Write.
type flushCounter struct {
	*httptest.ResponseRecorder
	writes, flushes int
	last            []byte
}

func (f *flushCounter) Flush() { f.flushes++ }

func (f *flushCounter) Write(p []byte) (int, error) {
	f.writes++
	f.last = append(f.last[:0], p...)
	return f.ResponseRecorder.Write(p)
}

func newRecorder() *flushCounter { return &flushCounter{ResponseRecorder: httptest.NewRecorder()} }

// lines splits an NDJSON body, checking every line is one JSON value.
func lines(t *testing.T, body string) []string {
	t.Helper()
	out := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	for _, l := range out {
		if !json.Valid([]byte(l)) {
			t.Fatalf("line %q is not JSON", l)
		}
	}
	return out
}

// TestNDJSONFraming: rows pushed before the header or after the trailer
// are dropped, the header is the first line and the trailer the last.
func TestNDJSONFraming(t *testing.T) {
	for _, trailer := range []string{"stats", "error"} {
		rec := newRecorder()
		n := NewNDJSON(rec)
		if n.Started() {
			t.Fatal("stream started before Header")
		}
		n.Rows([]engine.Value{iv(-1)}) // before Header: dropped
		n.Line(map[string]any{"early": true})
		n.Header([]string{"a", "b"})
		if !n.Started() {
			t.Fatal("stream not started after Header")
		}
		n.Rows([]engine.Value{iv(1), sv("x")}, []engine.Value{iv(2), sv("")})
		if trailer == "stats" {
			n.Stats(Stats{BatchSize: 3, Policy: "speculative"})
		} else {
			n.Error(errors.New("shard 2 died"))
		}
		n.Rows([]engine.Value{iv(99)}) // after the trailer: dropped
		n.Line(map[string]any{"late": true})

		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/x-ndjson" {
			t.Errorf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
		}
		got := lines(t, rec.Body.String())
		want := []string{`{"columns":["a","b"]}`, `[1,"x"]`, `[2,""]`}
		if len(got) != len(want)+1 {
			t.Fatalf("%s: body = %q", trailer, got)
		}
		for i, w := range want {
			if got[i] != w {
				t.Errorf("%s: line %d = %s, want %s", trailer, i, got[i], w)
			}
		}
		last := got[len(want)]
		if trailer == "stats" && !strings.HasPrefix(last, `{"stats":{`) || trailer == "error" && last != `{"error":"shard 2 died"}` {
			t.Errorf("%s trailer = %s", trailer, last)
		}
	}
}

// TestNDJSONTrailerBeforeHeader: a stream failed before its header writes
// nothing — the handler still owns the status line.
func TestNDJSONTrailerBeforeHeader(t *testing.T) {
	rec := newRecorder()
	n := NewNDJSON(rec)
	n.Error(errors.New("bind failed"))
	if n.Started() || rec.Body.Len() != 0 {
		t.Errorf("started=%v body=%q", n.Started(), rec.Body.String())
	}
}

func TestNDJSONNilNeverStarted(t *testing.T) {
	var n *NDJSON
	if n.Started() {
		t.Error("nil stream reports started")
	}
}

// TestNDJSONFlushCadence: Rows flushes once per 1024 rows emitted (across
// calls) and writes no more often — whether the caller hands over batches
// or one row at a time — an encoded chunk is one write, Line flushes on
// every call.
func TestNDJSONFlushCadence(t *testing.T) {
	rec := newRecorder()
	n := NewNDJSON(rec)
	n.Header([]string{"a"})
	batch := make([][]engine.Value, 500)
	for i := range batch {
		batch[i] = []engine.Value{iv(int64(i))}
	}
	for i, want := range []int{0, 0, 1, 1, 2} { // 500, 1000, 1500, 2000, 2500 rows
		n.Rows(batch...)
		if rec.flushes != want {
			t.Errorf("after %d rows: %d flushes, want %d", 500*(i+1), rec.flushes, want)
		}
	}
	if rec.writes > 1+2*2 { // the header, then at most two per 1024 rows
		t.Errorf("2500 rows in batches of 500 took %d writes", rec.writes)
	}
	before := rec.flushes
	n.Line(map[string]any{"estimate": 1})
	n.Line(map[string]any{"estimate": 2})
	if rec.flushes != before+2 {
		t.Errorf("2 Line calls flushed %d times", rec.flushes-before)
	}
	body := lines(t, rec.Body.String())
	if len(body) != 1+2500+2 || body[2500] != `[499]` || body[2501] != `{"estimate":1}` {
		t.Errorf("body has %d lines; rows must precede the Line that follows them", len(body))
	}

	// One row per call, as the coordinator's emit and the merge-on-emit
	// path hand them over.
	rec = newRecorder()
	n = NewNDJSON(rec)
	n.Header([]string{"a"})
	for i := 0; i < 3*1024+7; i++ {
		n.Rows(batch[i%len(batch)])
	}
	if rec.flushes != 3 || rec.writes > 1+2*3 {
		t.Errorf("3079 rows one at a time: %d flushes (want 3), %d writes (want <= 7)", rec.flushes, rec.writes)
	}
	n.Stats(Stats{})
	if got := len(lines(t, rec.Body.String())); got != 1+3*1024+7+1 {
		t.Errorf("body has %d lines", got)
	}

	// Encoded chunks: one write each, a flush when one crosses a multiple
	// of 1024 rows; rows buffered before a chunk come out before it.
	rec = newRecorder()
	n = NewNDJSON(rec)
	n.Header([]string{"a"})
	n.Rows(batch[7])
	for i, want := range []int{0, 1, 1, 2} { // 1+600, 1+1200, 1+1800, 1+2400 rows
		wantWrites := 1
		if i == 0 {
			wantWrites = 2 // the buffered row first
		}
		before := rec.writes
		n.RowLines(bytes.Repeat([]byte("[1]\n"), 600), 600)
		if rec.writes-before != wantWrites || rec.flushes != want {
			t.Errorf("chunk %d: %d writes (want %d), %d flushes (want %d)", i, rec.writes-before, wantWrites, rec.flushes, want)
		}
	}
	if body := lines(t, rec.Body.String()); len(body) != 1+1+2400 || body[1] != `[7]` {
		t.Errorf("body has %d lines, first row %s", len(body), body[1])
	}
}

// TestNonFiniteCellIsNull: JSON has no NaN or Inf; such a cell is null on
// every reply shape, and its row, its neighbours and the trailer are
// unharmed.
func TestNonFiniteCellIsNull(t *testing.T) {
	rows := [][]engine.Value{
		{iv(1), fv(0.5)},
		{iv(2), fv(math.NaN())},
		{iv(3), fv(math.Inf(1))},
		{iv(4), fv(math.Inf(-1))},
		{iv(5), fv(-2)},
	}
	rec := newRecorder()
	n := NewNDJSON(rec)
	n.Header([]string{"a", "b"})
	n.Rows(rows...)
	n.Stats(Stats{})
	got := lines(t, rec.Body.String())
	want := []string{`[1,0.5]`, `[2,null]`, `[3,null]`, `[4,null]`, `[5,-2]`}
	if len(got) != 7 || !reflect.DeepEqual(got[1:6], want) || !strings.HasPrefix(got[6], `{"stats":`) {
		t.Errorf("ndjson body = %q", got)
	}

	rec = newRecorder()
	WriteResult(rec, []string{"a", "b"}, rows, Stats{})
	if body := rec.Body.String(); rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) ||
		!strings.Contains(body, `"rows":[`+strings.Join(want, ",")+`]`) {
		t.Errorf("json reply = %d %s", rec.Code, body)
	}

	if b, err := json.Marshal([]Float{0.25, Float(math.NaN()), Float(math.Inf(-1))}); err != nil || string(b) != `[0.25,null,null]` {
		t.Errorf("Float marshals as %s, %v", b, err)
	}
}

func TestWriteContextError(t *testing.T) {
	for _, tc := range []struct {
		err  error
		code int
		msg  string
	}{
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "query timed out"},
		{fmt.Errorf("scan: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, "query timed out"},
		{context.Canceled, 499, "query cancelled"},
		{errors.New("anything else"), 499, "query cancelled"},
	} {
		rec := httptest.NewRecorder()
		WriteContextError(rec, tc.err)
		var body errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if rec.Code != tc.code || body.Error != tc.msg {
			t.Errorf("%v: %d %q, want %d %q", tc.err, rec.Code, body.Error, tc.code, tc.msg)
		}
	}
}

func TestWriteResult(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteResult(rec, []string{"a"}, nil, Stats{Policy: "full-load"})
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if body := rec.Body.String(); !strings.Contains(body, `"rows":[]`) || strings.Contains(body, "null") {
		t.Errorf("empty result body = %s", body)
	}

	rec = httptest.NewRecorder()
	WriteResult(rec, []string{"a", "b", "c"}, [][]engine.Value{{iv(-7), fv(2.5), sv("héllo")}}, Stats{})
	var got struct {
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
		Stats   *Stats   `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0][0] != float64(-7) || got.Rows[0][1] != 2.5 || got.Rows[0][2] != "héllo" || got.Stats == nil {
		t.Errorf("result = %+v", got)
	}
}

func TestWithTimeout(t *testing.T) {
	within := func(ctx context.Context, want time.Duration) bool {
		dl, ok := ctx.Deadline()
		left := time.Until(dl)
		return ok && left <= want && left > want-5*time.Second
	}
	ctx, cancel := WithTimeout(context.Background(), 60_000, time.Hour)
	if !within(ctx, time.Minute) {
		t.Error("timeout_ms did not win over the default")
	}
	cancel()
	ctx, cancel = WithTimeout(context.Background(), 0, time.Hour)
	if !within(ctx, time.Hour) {
		t.Error("default not applied to a request without timeout_ms")
	}
	cancel()
	ctx, cancel = WithTimeout(context.Background(), 0, 0)
	if _, ok := ctx.Deadline(); ok {
		t.Error("a query with neither timeout has a deadline")
	}
	cancel()
	if ctx.Err() != nil {
		t.Error("cancelling an unbounded query's no-op cancel ended its context")
	}
}

func TestDecodeBody(t *testing.T) {
	var req Request
	rec := httptest.NewRecorder()
	ok := DecodeBody(rec, httptest.NewRequest("POST", "/query", strings.NewReader(`{"sql":"SELECT 1","timeout_ms":20}`)), &req)
	if !ok || req.SQL != "SELECT 1" || req.TimeoutMS != 20 {
		t.Errorf("decoded %+v, %v", req, ok)
	}
	rec = httptest.NewRecorder()
	if DecodeBody(rec, httptest.NewRequest("POST", "/query", strings.NewReader(`{"sql":`)), &req) || rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", rec.Code)
	}
}
