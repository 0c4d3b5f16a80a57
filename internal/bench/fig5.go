package bench

import (
	"time"

	"scanraw/internal/chunk"
	"scanraw/internal/gen"
	"scanraw/internal/parse"
	"scanraw/internal/scanraw"
	"scanraw/internal/tok"
)

// Fig5Row is one column-count point of Fig. 5: average per-chunk time in
// each pipeline stage under full loading.
type Fig5Row struct {
	Cols     int
	Read     time.Duration
	Tokenize time.Duration
	Parse    time.Duration
	Write    time.Duration
}

// Total is the per-chunk time summed over stages.
func (r Fig5Row) Total() time.Duration { return r.Read + r.Tokenize + r.Parse + r.Write }

// Fig5Result is the full Fig. 5 sweep.
type Fig5Result struct {
	Rows []Fig5Row
}

// Fig5Cols is the paper's x axis (2 to 256 columns in powers of two).
var Fig5Cols = []int{2, 4, 8, 16, 32, 64, 128, 256}

// RunFig5 reproduces Fig. 5 (absolute and relative per-chunk stage times
// as a function of column count). Execution is with full data loading so
// WRITE time is included, as in the paper; the fixed-row-count files mean
// wider files simply carry more bytes per chunk.
//
// The operator converts in one fused pass, which would erase the paper's
// TOKENIZE/PARSE breakdown, so the two halves come from different places:
// READ and WRITE from the operator run's profile, TOKENIZE and PARSE from
// timing the two-stage reference (internal/tok, internal/parse) chunk by
// chunk over the same file, in the same model-time units.
func RunFig5(sc Scale, colCounts []int) (*Fig5Result, error) {
	sc = sc.withDefaults()
	if colCounts == nil {
		colCounts = Fig5Cols
	}
	diskCfg := CalibrateDisk(sc, 6)
	res := &Fig5Result{}
	// Use larger chunks (16 per file) than the default so per-chunk stage
	// times are well above timer noise even for 2-column files.
	lines := sc.Rows / 16
	if lines < 1 {
		lines = 1
	}
	for _, nc := range colCounts {
		row := Fig5Row{Cols: nc}
		for rep := 0; rep < sc.Reps; rep++ {
			e := newEnv(sc, diskCfg, sc.Rows, nc)
			op := scanraw.New(e.store, e.table, scanraw.Config{
				CPUSlowdown: sc.slowdown(),
				Workers:     8,
				ChunkLines:  lines,
				Policy:      scanraw.FullLoad,
				CacheChunks: sc.CacheChunks,
			})
			st, err := runSum(op, e, allCols(nc))
			if err != nil {
				return nil, err
			}
			row.Read += st.Profile.Read.PerChunk()
			row.Write += st.Profile.Write.PerChunk()
			tokenize, convert, err := referenceSplit(sc, e.spec, lines)
			if err != nil {
				return nil, err
			}
			row.Tokenize += tokenize
			row.Parse += convert
		}
		n := time.Duration(sc.Reps)
		row.Read /= n
		row.Tokenize /= n
		row.Parse /= n
		row.Write /= n
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// referenceSplit times the two-stage reference conversion of every column
// of the spec's file and returns the average per-chunk TOKENIZE and PARSE
// time, stretched by the scale's CPU slowdown as the operator's worker
// tasks are.
func referenceSplit(sc Scale, spec gen.CSVSpec, lines int) (tokenize, convert time.Duration, err error) {
	chunks, err := tok.SplitChunks(gen.Bytes(spec), lines)
	if err != nil {
		return 0, 0, err
	}
	tk := tok.Tokenizer{Delim: ',', MinFields: spec.Cols}
	ps := parse.Parser{Schema: spec.Schema()}
	cols := allCols(spec.Cols)
	for _, tc := range chunks {
		start := time.Now()
		pm, err := tk.Tokenize(tc, spec.Cols)
		if err != nil {
			return 0, 0, err
		}
		mid := time.Now()
		bc, err := ps.Parse(tc, pm, cols)
		convert += time.Since(mid)
		tokenize += mid.Sub(start)
		chunk.PutPositionalMap(pm)
		if err != nil {
			return 0, 0, err
		}
		bc.RecycleColumns()
	}
	stretch, n := time.Duration(sc.slowdown()), time.Duration(len(chunks))
	return tokenize * stretch / n, convert * stretch / n, nil
}

// Tables renders the two panels of Fig. 5.
func (r *Fig5Result) Tables() []*Table {
	abs := &Table{
		Title:  "Figure 5a: absolute time per chunk (ms) by stage vs column count",
		Header: []string{"columns", "READ", "TOKENIZE", "PARSE", "WRITE", "total"},
	}
	rel := &Table{
		Title:  "Figure 5b: relative time per chunk (%) by stage vs column count",
		Header: []string{"columns", "READ", "TOKENIZE", "PARSE", "WRITE"},
	}
	for _, row := range r.Rows {
		abs.Rows = append(abs.Rows, []string{
			fmtInt(row.Cols), ms(row.Read), ms(row.Tokenize), ms(row.Parse), ms(row.Write), ms(row.Total()),
		})
		tot := float64(row.Total())
		if tot == 0 {
			tot = 1
		}
		rel.Rows = append(rel.Rows, []string{
			fmtInt(row.Cols),
			pct(100 * float64(row.Read) / tot),
			pct(100 * float64(row.Tokenize) / tot),
			pct(100 * float64(row.Parse) / tot),
			pct(100 * float64(row.Write) / tot),
		})
	}
	abs.Notes = []string{"expected shape: per-chunk time grows with columns; PARSE dominates at high column counts"}
	rel.Notes = []string{"expected shape: I/O share (READ+WRITE) falls (~45%→~20%), PARSE share grows (~30%→~60%)"}
	return []*Table{abs, rel}
}
