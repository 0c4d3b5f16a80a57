package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"scanraw/internal/chunk"
	"scanraw/internal/cluster"
	"scanraw/internal/engine"
	"scanraw/internal/queryapi"
	"scanraw/internal/schema"
)

// breakableWriter is a response writer the test can break mid-stream.
type breakableWriter struct {
	hdr        http.Header
	buf        bytes.Buffer
	broken     bool
	deadWrites int // writes attempted after the break
}

func (w *breakableWriter) Header() http.Header { return w.hdr }
func (w *breakableWriter) WriteHeader(int)     {}
func (w *breakableWriter) Flush()              {}
func (w *breakableWriter) Write(p []byte) (int, error) {
	if w.broken {
		w.deadWrites++
		return 0, errors.New("client gone")
	}
	return w.buf.Write(p)
}

// emitStep is one event of an emitter script.
type emitStep struct {
	kind  byte // 'a' chunk id arrives with n rows, 's' the scan skips id, 'f' flush, 'b' the writer breaks, 'x' abandon
	id, n int
}

// valueLineSink is the ndjson sink as it was before rows were encoded from
// vectors — materialize the chunk's rows as values (frameSink's batch), hand
// them to the stream row by row. It is the oracle ndjsonSink's bytes are
// compared with.
type valueLineSink struct {
	frameSink
	nd *queryapi.NDJSON
}

func (s valueLineSink) write(_ int, b *valueBatch) error {
	s.nd.Rows(*b...)
	return nil
}

// runEmitter plays a script against an emitter over sink, breaking w (if
// any) where the script says so, and reports whether the emitter ended
// satisfied. Chunk id's rows hold id*100,
// id*100+1, ... in c0 and a string that needs escaping in c1.
func runEmitter[B rowBatch](t *testing.T, q *engine.Query, sch *schema.Schema, start int, steps []emitStep, w *breakableWriter, sink chunkSink[B]) bool {
	t.Helper()
	e, err := newRowEmitter(q, sch, start, sink)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		switch st.kind {
		case 'a':
			bc := chunk.NewBinary(sch, st.id, st.n)
			v, sv := chunk.NewVector(schema.Int64, st.n), chunk.NewVector(schema.Str, st.n)
			for i := range v.Ints {
				v.Ints[i] = int64(st.id*100 + i)
				sv.Strs[i] = fmt.Sprintf("r%d\n<%d>", st.id, i)
			}
			if err := errors.Join(bc.SetColumn(0, v), bc.SetColumn(1, sv)); err != nil {
				t.Fatal(err)
			}
			if n, err := e.ConsumeCounted(bc); err != nil || n != st.n {
				t.Fatalf("ConsumeCounted(chunk %d) = %d, %v; want %d", st.id, n, err, st.n)
			}
		case 's':
			e.markSkipped(st.id)
		case 'f':
			e.flush()
		case 'b':
			if w != nil {
				w.broken = true
			}
		case 'x':
			e.abandon()
		}
	}
	return e.satisfied()
}

// TestRowEmitter drives the ordered-row emitter through each reordering,
// LIMIT, leftover and failure behaviour, against both of its sinks; a case
// lists the c0 values the client must receive, in order. The ndjson sink's
// stream must also equal, byte for byte, what the value-at-a-time oracle
// writes for the same script.
func TestRowEmitter(t *testing.T) {
	a := func(id, n int) emitStep { return emitStep{'a', id, n} }
	s := func(id int) emitStep { return emitStep{kind: 's', id: id} }
	flush, brk, abandon := emitStep{kind: 'f'}, emitStep{kind: 'b'}, emitStep{kind: 'x'}
	cases := []struct {
		name          string
		limit, start  int
		steps         []emitStep
		want          []int64
		wantSatisfied bool
	}{
		{name: "in order", steps: []emitStep{a(0, 2), a(1, 1), a(2, 2)},
			want: []int64{0, 1, 100, 200, 201}},
		{name: "out of order arrival", steps: []emitStep{a(2, 1), a(1, 2), a(0, 1)},
			want: []int64{0, 100, 101, 200}},
		{name: "empty chunk advances the frontier", steps: []emitStep{a(1, 1), a(0, 0)},
			want: []int64{100}},
		{name: "skip ahead of the frontier", steps: []emitStep{s(1), a(2, 1), s(3), a(0, 1), a(4, 1)},
			want: []int64{0, 200, 400}},
		{name: "skip behind the frontier and repeated", steps: []emitStep{a(0, 1), s(0), s(1), s(1), a(2, 1)},
			want: []int64{0, 200}},
		{name: "limit cut mid-chunk", limit: 3, steps: []emitStep{a(1, 2), a(0, 2), a(2, 2)},
			want: []int64{0, 1, 100}, wantSatisfied: true},
		{name: "limit met exactly", limit: 2, steps: []emitStep{a(0, 2), a(1, 1)},
			want: []int64{0, 1}, wantSatisfied: true},
		{name: "leftovers after cancel", steps: []emitStep{a(0, 1), a(3, 1), a(2, 1), flush},
			want: []int64{0, 200, 300}},
		{name: "leftovers honour the limit", limit: 2, steps: []emitStep{a(2, 2), a(1, 1), flush},
			want: []int64{100, 200}, wantSatisfied: true},
		{name: "range start", start: 5, steps: []emitStep{a(6, 1), s(5), a(7, 1)},
			want: []int64{600, 700}},
		{name: "write failure", steps: []emitStep{a(0, 1), brk, a(1, 1), a(2, 1), flush},
			want: []int64{0}},
		{name: "abandon", steps: []emitStep{a(0, 2), a(2, 1), abandon, a(1, 1), flush},
			want: []int64{0, 1}},
	}

	sch := schema.MustNew(schema.Column{Name: "c0", Type: schema.Int64}, schema.Column{Name: "c1", Type: schema.Str})
	const base = 1000 // the frame sink's global chunk-ID shift
	for _, c := range cases {
		for _, sinkName := range []string{"ndjson", "frames"} {
			t.Run(c.name+"/"+sinkName, func(t *testing.T) {
				q, err := engine.ParseSQL("SELECT c0, c1 FROM data", sch)
				if err != nil {
					t.Fatal(err)
				}
				q.Limit = c.limit
				w := &breakableWriter{hdr: http.Header{}}
				var satisfied bool
				if sinkName == "ndjson" {
					nd := queryapi.NewNDJSON(w)
					nd.Header(q.ColumnNames())
					satisfied = runEmitter(t, q, sch, c.start, c.steps, w, ndjsonSink{nd})

					ow := &breakableWriter{hdr: http.Header{}}
					ond := queryapi.NewNDJSON(ow)
					ond.Header(q.ColumnNames())
					runEmitter(t, q, sch, c.start, c.steps, nil, valueLineSink{nd: ond})
					// The trailer brings out the rows the oracle's stream still
					// buffers. Its writer never breaks: a broken stream must
					// be a prefix of the whole one.
					nd.Stats(queryapi.Stats{})
					ond.Stats(queryapi.Stats{})
					if got, want := w.buf.Bytes(), ow.buf.Bytes(); !bytes.Equal(got, want) && !(w.broken && bytes.HasPrefix(want, got)) {
						t.Errorf("stream differs from the value path's:\n got %q\nwant %q", got, want)
					}
				} else {
					satisfied = runEmitter(t, q, sch, c.start, c.steps, w, newFrameSink(cluster.NewFrameWriter(w), w, base))
				}
				var wantIDs []int // chunks that put at least one row on the wire
				for _, v := range c.want {
					if id := base + int(v)/100; len(wantIDs) == 0 || wantIDs[len(wantIDs)-1] != id {
						wantIDs = append(wantIDs, id)
					}
				}

				var got []int64
				if sinkName == "ndjson" {
					lines := strings.Split(strings.TrimSuffix(w.buf.String(), "\n"), "\n")
					if !w.broken {
						lines = lines[:len(lines)-1] // the stats trailer
					}
					for _, line := range lines[1:] { // lines[0] is the columns header
						var row []any
						if err := json.Unmarshal([]byte(line), &row); err != nil || len(row) != 2 {
							t.Fatalf("bad row line %q: %v", line, err)
						}
						got = append(got, int64(row[0].(float64)))
					}
				} else {
					var gotIDs []int
					fr := cluster.NewFrameReader(&w.buf)
					for {
						m, err := fr.Next()
						if err == io.EOF {
							break
						}
						if err != nil || m.Type != cluster.MsgRows {
							t.Fatalf("bad frame %+v: %v", m, err)
						}
						gotIDs = append(gotIDs, m.Chunk)
						for _, row := range m.Rows {
							got = append(got, row[0].Int)
						}
					}
					if !reflect.DeepEqual(gotIDs, wantIDs) {
						t.Errorf("frame chunk IDs = %v, want %v", gotIDs, wantIDs)
					}
					// A frame stream is dead after its first failed write:
					// the header of the one frame that found out.
					if w.deadWrites > 1 {
						t.Errorf("%d writes after the stream broke, want at most 1", w.deadWrites)
					}
				}
				if !reflect.DeepEqual(got, c.want) {
					t.Errorf("emitted %v, want %v", got, c.want)
				}
				if satisfied != c.wantSatisfied {
					t.Errorf("satisfied = %v, want %v", satisfied, c.wantSatisfied)
				}
			})
		}
	}
}

// discardWriter is a response writer that drops the body.
type discardWriter struct{ hdr http.Header }

func (w discardWriter) Header() http.Header         { return w.hdr }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkRowEmitter streams a reply of sixteen 4 096-row chunks, four int
// columns each, through the emitter per iteration: "vectors" is /query's
// sink, "values" the value-at-a-time path it replaced.
func BenchmarkRowEmitter(b *testing.B) {
	const chunks, rows = 16, 4096
	var cols []schema.Column
	for i := 0; i < 4; i++ {
		cols = append(cols, schema.Column{Name: fmt.Sprintf("c%d", i), Type: schema.Int64})
	}
	sch := schema.MustNew(cols...)
	bcs := make([]*chunk.BinaryChunk, chunks)
	for id := range bcs {
		bcs[id] = chunk.NewBinary(sch, id, rows)
		for c := range cols {
			v := chunk.NewVector(schema.Int64, rows)
			for r := range v.Ints {
				v.Ints[r] = int64(id*rows+r) * int64(7919+c) % (1 << 30)
			}
			if err := bcs[id].SetColumn(c, v); err != nil {
				b.Fatal(err)
			}
		}
	}
	q, err := engine.ParseSQL("SELECT c0, c1, c2, c3 FROM data", sch)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("vectors", func(b *testing.B) {
		benchEmitter(b, q, sch, bcs, func(nd *queryapi.NDJSON) chunkSink[*lineBatch] { return ndjsonSink{nd} })
	})
	b.Run("values", func(b *testing.B) {
		benchEmitter(b, q, sch, bcs, func(nd *queryapi.NDJSON) chunkSink[*valueBatch] { return valueLineSink{nd: nd} })
	})
}

func benchEmitter[B rowBatch](b *testing.B, q *engine.Query, sch *schema.Schema, bcs []*chunk.BinaryChunk, sink func(*queryapi.NDJSON) chunkSink[B]) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nd := queryapi.NewNDJSON(discardWriter{http.Header{}})
		nd.Header(q.ColumnNames())
		e, err := newRowEmitter(q, sch, 0, sink(nd))
		if err != nil {
			b.Fatal(err)
		}
		for _, bc := range bcs {
			if _, err := e.ConsumeCounted(bc); err != nil {
				b.Fatal(err)
			}
		}
		nd.Stats(queryapi.Stats{})
	}
	b.ReportMetric(float64(len(bcs)*bcs[0].Rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}
