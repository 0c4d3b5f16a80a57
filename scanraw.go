// Package scanraw is a Go implementation of SCANRAW — the parallel in-situ
// data-processing operator with speculative loading from Cheng & Rusu,
// "Parallel In-Situ Data Processing with Speculative Loading" (SIGMOD
// 2014).
//
// SCANRAW lets you run SQL over raw delimited files with zero
// time-to-query: the first query streams the file through a super-scalar
// conversion pipeline (one fused tokenize+parse pass per chunk), and —
// whenever the disk would otherwise idle — speculatively stores converted
// chunks into a column-oriented database so later queries get faster and
// faster, converging to full database performance without ever paying an
// explicit load step.
//
// This package is the user-facing facade. The building blocks live in
// internal packages: the pipeline operator (internal/scanraw), the
// columnar engine and SQL subset (internal/engine), the database storage
// (internal/dbstore), and the bandwidth-modelled disk the system runs on
// (internal/vdisk).
//
// Basic use:
//
//	db := scanraw.Open(scanraw.Options{})
//	if err := db.Stage("events", "ts:int,user:string,amount:float",
//	        scanraw.CSV, rawBytes); err != nil { ... }
//	res, stats, err := db.Exec("SELECT user, SUM(amount) FROM events GROUP BY user")
//
// Each staged table gets one long-lived operator whose binary chunk cache,
// catalog statistics (integer min/max) and loading progress
// persist across queries. Stats from Exec report where each query's chunks
// came from (cache, database, raw conversion) and how much was loaded;
// LoadedChunks and EstimateRange expose the catalog's view.
package scanraw

import (
	"fmt"
	"os"
	"strings"
	"sync"

	"scanraw/internal/dbstore"
	"scanraw/internal/engine"
	intscan "scanraw/internal/scanraw"
	"scanraw/internal/schema"
	"scanraw/internal/vdisk"
)

// Policy selects how aggressively query execution loads converted data
// into the database.
type Policy = intscan.WritePolicy

// The loading policies. Speculative is the paper's contribution and the
// default: it loads only when the disk would otherwise idle, plus a
// safeguard flush of the cache at end of scan.
const (
	ExternalTables = intscan.ExternalTables
	FullLoad       = intscan.FullLoad
	BufferedLoad   = intscan.BufferedLoad
	Speculative    = intscan.Speculative
	Invisible      = intscan.Invisible
)

// Format identifies the raw-file format of a staged table.
type Format uint8

// Supported raw formats.
const (
	// CSV is comma-separated text, one tuple per line.
	CSV Format = iota
	// TSV is tab-separated text (the SAM alignment format is TSV with 11
	// mandatory fields).
	TSV
)

// Options configures a DB.
type Options struct {
	// DiskReadMBps / DiskWriteMBps set the simulated disk bandwidth in
	// MB/s. Zero means unthrottled — appropriate when you care about
	// results, not loading dynamics.
	DiskReadMBps  int
	DiskWriteMBps int

	// Workers is the conversion worker-pool size (default 8; 0 keeps the
	// default, negative selects sequential execution).
	Workers int
	// ChunkLines is the lines-per-chunk processing unit (default 8192).
	ChunkLines int
	// CacheChunks is the binary chunk cache's budget, in full-width chunks at
	// 8 bytes a value (default 32): the cache counts the bytes its columns
	// hold, so int32 and one-column entries cost less, and a chunk with
	// string columns (a 16-byte header a value plus its bytes) may cost more.
	CacheChunks int
	// Policy is the loading policy (default Speculative).
	Policy Policy
	// NoSafeguard disables the end-of-scan cache flush.
	NoSafeguard bool
	// NoStats disables min/max statistics collection (and with it
	// predicate-driven chunk skipping).
	NoStats bool
}

// Result is a materialized query result.
type Result = engine.Result

// Stats summarizes how one query executed (chunk sources, loading
// activity, per-stage times).
type Stats = intscan.RunStats

// DB is an embedded in-situ processing system: a simulated disk holding
// staged raw files and database pages, a catalog, and one live SCANRAW
// operator per staged file.
type DB struct {
	opts     Options
	disk     *vdisk.Disk
	store    *dbstore.Store
	registry *intscan.Registry

	mu      sync.Mutex
	formats map[string]Format // table name -> staged format
}

// Open creates an empty DB.
func Open(opts Options) *DB {
	var cfg vdisk.Config
	if opts.DiskReadMBps > 0 {
		cfg.ReadBandwidth = int64(opts.DiskReadMBps) << 20
	}
	if opts.DiskWriteMBps > 0 {
		cfg.WriteBandwidth = int64(opts.DiskWriteMBps) << 20
	}
	disk := vdisk.New(cfg)
	store := dbstore.NewStore(disk)
	return &DB{
		opts:     opts,
		disk:     disk,
		store:    store,
		registry: intscan.NewRegistry(store),
		formats:  make(map[string]Format),
	}
}

// ParseSchema converts a "name:type,name:type" specification into a
// schema. Types are int, float and string (with the usual SQL aliases).
func ParseSchema(spec string) (*schema.Schema, error) { return schema.ParseSpec(spec) }

// Stage registers raw file contents as a queryable table. The schema spec
// is "name:type,..." (see ParseSchema). Staging is instant — no parsing or
// loading happens until the first query.
func (db *DB) Stage(table, schemaSpec string, format Format, raw []byte) error {
	sch, err := ParseSchema(schemaSpec)
	if err != nil {
		return err
	}
	return db.StageSchema(table, sch, format, raw)
}

// StageFile reads path from the filesystem and stages its contents.
func (db *DB) StageFile(table, schemaSpec string, format Format, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("scanraw: staging %q: %w", table, err)
	}
	return db.Stage(table, schemaSpec, format, raw)
}

// StageSchema is Stage with a pre-built schema.
func (db *DB) StageSchema(table string, sch *schema.Schema, format Format, raw []byte) error {
	blob := "raw/" + table
	if db.disk.Exists(blob) {
		return fmt.Errorf("scanraw: table %q already staged", table)
	}
	db.disk.Preload(blob, raw)
	if _, err := db.store.CreateTable(table, sch, blob); err != nil {
		db.disk.Delete(blob)
		return err
	}
	db.mu.Lock()
	db.formats[table] = format
	db.mu.Unlock()
	return nil
}

// Tables returns the staged table names, sorted.
func (db *DB) Tables() []string {
	var out []string
	for _, blob := range db.disk.List("raw/") {
		out = append(out, strings.TrimPrefix(blob, "raw/"))
	}
	return out
}

func (db *DB) operatorConfig(table string) intscan.Config {
	db.mu.Lock()
	format := db.formats[table]
	db.mu.Unlock()
	delim := byte(',')
	if format == TSV {
		delim = '\t'
	}
	workers := db.opts.Workers
	switch {
	case workers == 0:
		workers = 8
	case workers < 0:
		workers = 0
	}
	cfg := intscan.Config{
		Workers:      workers,
		ChunkLines:   db.opts.ChunkLines,
		CacheChunks:  db.opts.CacheChunks,
		Policy:       db.opts.Policy,
		Safeguard:    !db.opts.NoSafeguard,
		Delim:        delim,
		CollectStats: !db.opts.NoStats,
	}
	return cfg
}

// EstimateRange returns the catalog's cardinality estimate for how many
// rows of the table have the named integer column within [lo, hi], plus
// the total rows known to the catalog. Estimates come from the min/max
// statistics collected while queries convert data; before any query has
// run they cover zero rows.
func (db *DB) EstimateRange(table, column string, lo, hi int64) (estimate float64, totalRows int64, err error) {
	t, ok := db.store.Table(table)
	if !ok {
		return 0, 0, fmt.Errorf("scanraw: table %q is not staged", table)
	}
	col, ok := t.Schema().Index(column)
	if !ok {
		return 0, 0, fmt.Errorf("scanraw: unknown column %q", column)
	}
	return t.EstimateRangeRows(col, lo, hi)
}

// Exec parses and runs a SQL query against its FROM table. Depending on
// the loading policy and query history, chunks are served from the binary
// cache, the database, or converted from the raw file — the Stats report
// says which.
func (db *DB) Exec(sql string) (*Result, Stats, error) {
	from, err := engine.FromTable(sql)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("scanraw: %w", err)
	}
	table, ok := db.store.Table(from)
	if !ok {
		return nil, Stats{}, fmt.Errorf("scanraw: table %q is not staged", from)
	}
	return db.registry.ExecuteSQL(table, db.operatorConfig(from), sql)
}

// LoadedChunks reports how many of the table's chunks have every listed
// query-relevant column in the database. With nil columns it checks all
// schema columns. The second value is the total number of discovered
// chunks (0 before the first scan).
func (db *DB) LoadedChunks(table string, columns []string) (loaded, total int, err error) {
	t, ok := db.store.Table(table)
	if !ok {
		return 0, 0, fmt.Errorf("scanraw: table %q is not staged", table)
	}
	var idxs []int
	if columns == nil {
		for i := 0; i < t.Schema().NumColumns(); i++ {
			idxs = append(idxs, i)
		}
	} else {
		for _, name := range columns {
			i, ok := t.Schema().Index(name)
			if !ok {
				return 0, 0, fmt.Errorf("scanraw: unknown column %q", name)
			}
			idxs = append(idxs, i)
		}
	}
	return t.CountLoaded(idxs), t.NumChunks(), nil
}

// WaitIdle blocks until background loading (the safeguard flush) finishes
// for every staged table.
func (db *DB) WaitIdle() {
	for _, name := range db.Tables() {
		if op, ok := db.registry.Lookup("raw/" + name); ok {
			op.WaitIdle()
		}
	}
}

// Sweep deletes operators for fully loaded tables (their queries are plain
// database scans now) and returns how many were removed.
func (db *DB) Sweep() int { return db.registry.Sweep() }

// DiskStats exposes the simulated disk counters, useful for observing
// loading activity.
func (db *DB) DiskStats() vdisk.Stats { return db.disk.Stats() }
