package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"scanraw/internal/gen"
	"scanraw/internal/sam"
	"scanraw/internal/schema"
)

// chunkLines and cacheChunks are scanrawd's defaults (-chunk, -cache); the
// dataset sizes below are chosen relative to them and the harness never
// overrides them.
const (
	chunkLines  = 1 << 13
	cacheChunks = 32
)

// dataset is one generated raw file. Exactly one of csv and samSpec is set.
type dataset struct {
	name    string
	csv     *gen.CSVSpec
	samSpec *sam.Spec

	path  string // written by generate
	bytes int64
	data  []byte // kept only while the traced run or the SAM oracle needs it
}

// sizes holds the row counts of the four datasets; -smoke shrinks them.
type sizes struct {
	ints16, ints16L, ints16S, samReads int
}

var (
	fullSizes = sizes{ints16: 1 << 19, ints16L: 1 << 20, ints16S: 1 << 18, samReads: 600000}
	// Smoke is a sixteenth of the rows: 4, 8, 2 and 5 chunks walk every code
	// path of the harness in a few seconds. Nothing is evicted at that size,
	// so its numbers mean nothing.
	smokeSizes = sizes{ints16: 1 << 15, ints16L: 1 << 16, ints16S: 1 << 14, samReads: 40000}
)

func newDataset(name string, sz sizes, seed uint64) *dataset {
	switch name {
	case "ints16":
		// ~88 MB, 64 chunks: twice the chunk cache, so a cold scan must evict.
		return &dataset{name: name, csv: &gen.CSVSpec{Rows: sz.ints16, Cols: 16, Seed: seed}}
	case "ints16L":
		// ~176 MB, 128 chunks: four times the cache, so warm queries read pages.
		return &dataset{name: name, csv: &gen.CSVSpec{Rows: sz.ints16L, Cols: 16, Seed: seed}}
	case "ints16S":
		// ~44 MB, 32 chunks: fits the cache exactly, so warm queries never touch storage.
		return &dataset{name: name, csv: &gen.CSVSpec{Rows: sz.ints16S, Cols: 16, Seed: seed}}
	case "sam600k":
		// ~92 MB TSV, 74 chunks, 6 string + 5 int columns: the generic kernel and string pages.
		return &dataset{name: name, samSpec: &sam.Spec{Reads: sz.samReads, Seed: seed}}
	}
	panic("benchmark: unknown dataset " + name)
}

func (d *dataset) rows() int {
	if d.csv != nil {
		return d.csv.Rows
	}
	return d.samSpec.Reads
}

func (d *dataset) chunks() int { return (d.rows() + chunkLines - 1) / chunkLines }

func (d *dataset) schema() *schema.Schema {
	if d.csv != nil {
		return d.csv.Schema()
	}
	return sam.Schema()
}

func (d *dataset) delim() byte {
	if d.csv != nil {
		return ','
	}
	return '\t'
}

// daemonArgs are the table flags scanrawd gets for this dataset. Together
// with -addr and -data-dir they are the only flags the harness passes.
func (d *dataset) daemonArgs() []string {
	if d.samSpec != nil {
		return []string{"-file", d.path, "-sam", "data"}
	}
	cols := make([]string, d.csv.Cols)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d:int", i)
	}
	return []string{"-file", d.path, "-schema", strings.Join(cols, ",")}
}

// generate materializes the file under dir. The bytes stay in d.data until
// release, for the SAM reference scan and the in-process layer runs.
func (d *dataset) generate(dir string) error {
	d.materialize()
	d.path = filepath.Join(dir, d.name+".raw")
	// Synced, so that the kernel is not still writing the dataset back while
	// the first repetition is being timed.
	f, err := os.Create(d.path)
	if err != nil {
		return fmt.Errorf("writing dataset %s: %w", d.name, err)
	}
	if _, err = f.Write(d.data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing dataset %s: %w", d.name, err)
	}
	return nil
}

// materialize generates the bytes in memory only.
func (d *dataset) materialize() {
	if d.csv != nil {
		d.data = gen.Bytes(*d.csv)
	} else {
		d.data = sam.SAMBytes(*d.samSpec)
	}
	d.bytes = int64(len(d.data))
}

// release drops the bytes and collects them at once: left to the next
// collection cycle, the harness would be freeing ~100 MB on the daemon's two
// cores while the first repetition is timed (the first cold scan of a run read
// ~20% slow).
func (d *dataset) release() {
	d.data = nil
	runtime.GC()
}
