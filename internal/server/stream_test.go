package server

import (
	"bytes"
	"encoding/json"
	"errors"
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
	kind  byte // 'a' chunk id arrives with n rows, 's' the scan skips id, 'f' flush, 'b' the writer breaks
	id, n int
}

// TestRowEmitter drives the ordered-row emitter through each reordering,
// LIMIT, leftover and failure behaviour, against both of its sinks. Chunk
// id's rows hold the values id*100, id*100+1, ...; a case lists the values
// the client must receive, in order.
func TestRowEmitter(t *testing.T) {
	a := func(id, n int) emitStep { return emitStep{'a', id, n} }
	s := func(id int) emitStep { return emitStep{kind: 's', id: id} }
	flush, brk := emitStep{kind: 'f'}, emitStep{kind: 'b'}
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
	}

	sch := schema.MustNew(schema.Column{Name: "c0", Type: schema.Int64})
	const base = 1000 // the frame sink's global chunk-ID shift
	for _, c := range cases {
		for _, sinkName := range []string{"ndjson", "frames"} {
			t.Run(c.name+"/"+sinkName, func(t *testing.T) {
				q, err := engine.ParseSQL("SELECT c0 FROM data", sch)
				if err != nil {
					t.Fatal(err)
				}
				q.Limit = c.limit
				w := &breakableWriter{hdr: http.Header{}}
				var sink chunkSink
				if sinkName == "ndjson" {
					nd := queryapi.NewNDJSON(w)
					nd.Header(q.ColumnNames())
					sink = ndjsonSink(nd)
				} else {
					sink = frameSink(cluster.NewFrameWriter(w), w, base)
				}
				e, err := newRowEmitter(q, sch, 2, c.start, sink)
				if err != nil {
					t.Fatal(err)
				}
				var wantIDs []int // chunks that put at least one row on the wire
				for _, st := range c.steps {
					switch st.kind {
					case 'a':
						bc := chunk.NewBinary(sch, st.id, st.n)
						v := chunk.NewVector(schema.Int64, st.n)
						for i := range v.Ints {
							v.Ints[i] = int64(st.id*100 + i)
						}
						if err := bc.SetColumn(0, v); err != nil {
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
						w.broken = true
					}
				}
				for _, v := range c.want {
					if id := base + int(v)/100; len(wantIDs) == 0 || wantIDs[len(wantIDs)-1] != id {
						wantIDs = append(wantIDs, id)
					}
				}

				var got []int64
				if sinkName == "ndjson" {
					lines := strings.Split(strings.TrimSuffix(w.buf.String(), "\n"), "\n")
					for _, line := range lines[1:] { // lines[0] is the columns header
						var row []int64
						if err := json.Unmarshal([]byte(line), &row); err != nil || len(row) != 1 {
							t.Fatalf("bad row line %q: %v", line, err)
						}
						got = append(got, row[0])
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
				if e.satisfied() != c.wantSatisfied {
					t.Errorf("satisfied = %v, want %v", e.satisfied(), c.wantSatisfied)
				}
			})
		}
	}
}
