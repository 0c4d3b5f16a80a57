package main

import (
	"os"
	"path/filepath"
	"time"

	"scanraw/internal/chunk"
	"scanraw/internal/dbstore"
	"scanraw/internal/scanraw"
	"scanraw/internal/server"
	"scanraw/internal/store"
	"scanraw/internal/tok"
)

// inproc is one in-process stack on a FileDisk in a temp dir, assembled the
// way cmd/scanrawd assembles it with default flags. The layer runs and the
// traced replay call its layers' public functions directly; nothing here
// goes through HTTP or a subprocess.
type inproc struct {
	dir    string
	ds     *dataset
	disk   *store.FileDisk
	man    *store.Manifest
	st     *dbstore.Store
	table  *dbstore.Table
	chunks []*chunk.TextChunk // the raw bytes carved at the daemon's chunk size
}

const rawBlob = "raw/data"

// scanrawd's defaults for -workers, -max-concurrent and -coalesce; with
// chunkLines and cacheChunks, harness.checkDefaults holds them to the built
// daemon's usage text.
const (
	operatorWorkers = 8
	maxConcurrent   = 32
	coalesceWindow  = 2 * time.Millisecond
)

// operatorConfig mirrors scanrawd's per-table configuration at default flags.
func operatorConfig(ds *dataset) scanraw.Config {
	return scanraw.Config{
		Workers:        operatorWorkers,
		ChunkLines:     chunkLines,
		CacheChunks:    cacheChunks,
		Policy:         scanraw.Speculative,
		Safeguard:      true,
		Delim:          ds.delim(),
		CollectStats:   true,
		ConsumeWorkers: 1,
		Speculation:    scanraw.SpecPayoff,
	}
}

// newInproc stages ds (whose bytes must still be held) on a fresh FileDisk.
func (h *harness) newInproc(ds *dataset) (*inproc, error) {
	dir, err := h.mkdir("inproc")
	if err != nil {
		return nil, err
	}
	p := &inproc{dir: dir, ds: ds}
	if p.disk, err = store.OpenFileDisk(filepath.Join(dir, "blobs")); err != nil {
		return nil, err
	}
	if p.man, err = store.OpenManifest(dir); err != nil {
		return nil, err
	}
	if p.st, err = dbstore.OpenDurable(p.disk, p.man); err != nil {
		return nil, err
	}
	p.st.SetGroupWidth(1)
	p.disk.Preload(rawBlob, ds.data)
	if p.table, err = p.st.EnsureTable("data", ds.schema(), rawBlob, store.FingerprintBytes(ds.data)); err != nil {
		return nil, err
	}
	if p.chunks, err = tok.SplitChunks(ds.data, chunkLines); err != nil {
		return nil, err
	}
	return p, nil
}

// registerChunks records every chunk's extent in the catalog, which the
// operator does as it discovers them and page writes require.
func (p *inproc) registerChunks() error {
	off := int64(0)
	for _, tc := range p.chunks {
		if err := p.table.EnsureChunk(tc.ID, tc.Lines, off, int64(len(tc.Data))); err != nil {
			return err
		}
		off += int64(len(tc.Data))
	}
	return p.table.SetComplete()
}

func (p *inproc) operator() *scanraw.Operator {
	return scanraw.New(p.st, p.table, operatorConfig(p.ds))
}

// server builds the query server over this stack, as scanrawd does.
func (p *inproc) server() (*server.Server, error) {
	srv := server.New(p.st, server.Config{MaxConcurrent: maxConcurrent, CoalesceWindow: coalesceWindow})
	return srv, srv.AddTable(p.table, operatorConfig(p.ds))
}

func (p *inproc) close() {
	p.man.Close()
	os.RemoveAll(p.dir)
}
