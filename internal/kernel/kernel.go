// Package kernel implements fused, schema-specialized conversion: TOKENIZE
// and PARSE collapsed into a single pass over the chunk bytes. It is the
// only conversion the operator runs. The two-stage reference (internal/tok,
// internal/parse) materializes a positional map — one (start, end) pair per
// cell — that PARSE immediately re-reads and discards: a round trip through
// memory nothing downstream needs. A fused kernel walks each line once and
// converts every requested field the moment it is delimited, writing
// straight into pooled column vectors.
//
// Kernels are selected per (schema signature, requested column set,
// delimiter) from a small registry ordered most-specialized-first: a
// hand-specialized loop for all-int64 column sets and a generic fused loop
// for every other shape (floats, strings). A specialization earns its place
// by a benchmark workload that resolves it from the generic loop (DESIGN.md
// §12). Unrequested columns are skipped with bytes.IndexByte (memchr);
// integer fields are parsed inline by the delimiter scan itself, so
// requested int64 columns never pay a separate field-boundary search.
// Both kernels parse an integer eight digits per load: a SWAR test on a
// little-endian word finds the leading digits and three multiplies fold
// them, two words covering a sign and up to 16 digits. A field the word
// path cannot finish exactly (an error, a '+', 17+ digits, a digit or '-'
// delimiter, the chunk's last few bytes) re-parses from its first byte in
// the byte-at-a-time loop, so every error is still that loop's.
//
// Framing semantics — line termination, CRLF stripping, empty trailing
// fields, field-count errors — mirror tok.Tokenize exactly, and value
// parsing reuses the same ParseInt/ParseFloat contracts, so a fused kernel
// succeeds with byte-identical output, or fails, exactly when the
// tok→parse reference does. The differential and fuzz suites in this
// package assert that equivalence.
package kernel

import (
	"fmt"
	"sort"

	"scanraw/internal/chunk"
	"scanraw/internal/schema"
)

// runFunc converts one text chunk into the kernel's output vectors, one per
// requested column, each pre-sized to tc.Lines values.
type runFunc func(k *Kernel, tc *chunk.TextChunk, out []*chunk.Vector) error

// Kernel is a fused conversion routine specialized to one (schema,
// requested column set, delimiter) combination. A Kernel is immutable and
// safe for concurrent use; the operator builds one per run and shares it
// across its conversion workers.
type Kernel struct {
	sch   *schema.Schema
	cols  []int         // requested schema ordinals, sorted ascending
	types []schema.Type // types[i] is the type of cols[i]
	gaps  []int         // gaps[i] = unrequested columns to skip before cols[i]
	delim byte
	upTo  int // fields a line must carry: max requested ordinal + 1
	name  string
	run   runFunc
}

// builder is one registry entry: a predicate over the requested shape and
// the specialized routine used when it matches.
type builder struct {
	name  string
	match func(sch *schema.Schema, cols []int) bool
	run   runFunc
}

// registry lists the kernels most-specialized-first; For picks the first
// match. The generic fused kernel matches everything, so selection never
// falls through.
var registry = []builder{
	{name: "int64-subset", match: matchAllInt64, run: runInt64Subset},
	{name: "fused-generic", match: func(*schema.Schema, []int) bool { return true }, run: runGeneric},
}

// For selects the fused kernel for the requested column set. cols must be
// non-empty, sorted ascending, and within the schema's range — the same
// contract scanraw requests already satisfy.
func For(sch *schema.Schema, cols []int, delim byte) (*Kernel, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("kernel: no columns requested")
	}
	if !sort.IntsAreSorted(cols) {
		return nil, fmt.Errorf("kernel: columns must be sorted ascending")
	}
	for i, c := range cols {
		if c < 0 || c >= sch.NumColumns() {
			return nil, fmt.Errorf("kernel: column %d out of schema range [0,%d)", c, sch.NumColumns())
		}
		if i > 0 && cols[i-1] == c {
			return nil, fmt.Errorf("kernel: duplicate column %d", c)
		}
	}
	k := &Kernel{
		sch:   sch,
		cols:  append([]int(nil), cols...),
		types: make([]schema.Type, len(cols)),
		gaps:  make([]int, len(cols)),
		delim: delim,
		upTo:  cols[len(cols)-1] + 1,
	}
	prev := -1
	for i, c := range cols {
		k.types[i] = sch.Column(c).Type
		k.gaps[i] = c - prev - 1
		prev = c
	}
	for _, b := range registry {
		if b.match(sch, k.cols) {
			k.name = b.name
			k.run = b.run
			break
		}
	}
	return k, nil
}

// Name identifies the selected specialization (for logs and tests).
func (k *Kernel) Name() string { return k.name }

// Columns returns the requested schema ordinals (shared; do not mutate).
func (k *Kernel) Columns() []int { return k.cols }

func matchAllInt64(sch *schema.Schema, cols []int) bool {
	for _, c := range cols {
		if sch.Column(c).Type != schema.Int64 {
			return false
		}
	}
	return true
}

// Convert runs the fused conversion for one text chunk, returning a binary
// chunk holding the kernel's requested columns. The output is
// byte-identical to tokenizing with tok.Tokenize(tc, upTo) and parsing with
// parse.Parser.Parse — or an error whenever that path would error.
//
// Convert retains nothing of tc: numbers are parsed, string cells are copied
// out of tc.Data, an error quotes its own copy of the field. The caller may
// overwrite or recycle tc.Data the moment Convert returns (the operator
// does), or convert the same chunk again. Convert does not recycle it
// itself — the text belongs to whoever carved it.
func (k *Kernel) Convert(tc *chunk.TextChunk) (*chunk.BinaryChunk, error) {
	out := k.getVectors(tc.Lines)
	if err := k.run(k, tc, out); err != nil {
		putVectors(out)
		return nil, err
	}
	return k.install(tc.ID, tc.Lines, out)
}

// install moves the filled vectors into a binary chunk, which takes over
// their pool ownership (they are recycled through RecycleColumns from here
// on, per the chunk package's ownership rule).
func (k *Kernel) install(id, rows int, out []*chunk.Vector) (*chunk.BinaryChunk, error) {
	bc := chunk.NewBinary(k.sch, id, rows)
	for i, c := range k.cols {
		if err := bc.SetColumn(c, out[i]); err != nil {
			// Unreachable by construction (types and lengths match the
			// schema); recycle defensively rather than leak the pool.
			bc.RecycleColumns()
			putVectors(out[i:])
			return nil, err
		}
		out[i] = nil
	}
	return bc, nil
}

// getVectors acquires one pooled output vector per requested column, each
// sized to n values.
func (k *Kernel) getVectors(n int) []*chunk.Vector {
	out := make([]*chunk.Vector, len(k.cols))
	for i := range k.cols {
		out[i] = chunk.GetVector(k.types[i], n)
	}
	return out
}

// putVectors returns a failed conversion's vectors to the shared pool.
func putVectors(out []*chunk.Vector) {
	for _, v := range out {
		chunk.PutVector(v)
	}
}
