// Command scanrawd runs the SCANRAW query-serving daemon: an HTTP server
// that executes SQL in-situ over raw delimited files, coalescing
// concurrent queries against the same file into shared scans and loading
// data speculatively as queries run.
//
// Usage:
//
//	scanrawd -file data.csv -schema 'c0:int,c1:int' -addr :8080 \
//	         -policy speculative -workers 8
//
// Several files can be served at once by repeating -file with name=path
// pairs and matching name=spec schemas:
//
//	scanrawd -file a=a.csv -schema 'a=x:int,y:int' \
//	         -file b=b.tsv -schema 'b=u:int,v:string' -tsv b
//
// Endpoints:
//
//	POST /query    {"sql": "SELECT ...", "timeout_ms": 5000}
//	               → {"columns": [...], "rows": [[...]], "stats": {...}}
//	               add ?stream=ndjson for newline-delimited row streaming
//	GET  /metrics  live worker/disk utilization + serving counters
//	GET  /tables   catalog and loading progress per table
//	GET  /healthz  liveness + readiness (503 while draining)
//	POST /exec     coordinator-assigned shard execution (binary frames)
//
// Queries against the same file that arrive while a scan of it runs share
// the next physical scan; a query at an idle file starts at once, unless
// its scan must convert raw data, which first waits the coalescing window
// (-coalesce) for companions. Queries beyond -max-concurrent are rejected
// with 429. Client disconnects and timeouts cancel the pipeline.
//
// With -coordinator the daemon serves no local data: it scatters each
// /query to the workers named in the -fleet config (each owning a chunk
// range of every table), merges their partial results through the engine
// merge tree, and degrades gracefully — per-peer timeouts, one bounded
// retry round with replica failover, and explicit partial results when a
// shard has no live peer. The coordinator exposes the same /query wire
// as a single scanrawd plus GET /fleet; see DESIGN.md §11 and
// examples/fleet.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"scanraw/internal/cluster"
	"scanraw/internal/dbstore"
	"scanraw/internal/sam"
	"scanraw/internal/scanraw"
	"scanraw/internal/schema"
	"scanraw/internal/server"
	storepkg "scanraw/internal/store"
	"scanraw/internal/vdisk"
)

// multiFlag collects repeated flag values.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// splitNamed splits "name=value" flags; a bare value gets the default
// name "data" (single-table usage needs no names).
// stage installs a table's raw bytes as blob and checks that they arrived.
// Preload reports nothing, so a failed write — a full disk, a read-only data
// dir — would otherwise start the daemon over whatever the blob held before:
// on a restart, an older file's contents served under the new fingerprint.
func stage(disk storepkg.Disk, blob string, raw []byte) error {
	disk.Preload(blob, raw)
	size, err := disk.Size(blob)
	if err != nil {
		return fmt.Errorf("staging %s: %w", blob, err)
	}
	if size != int64(len(raw)) {
		return fmt.Errorf("staging %s: %d bytes on disk, %d staged", blob, size, len(raw))
	}
	return nil
}

func splitNamed(v string) (name, value string) {
	if n, rest, ok := strings.Cut(v, "="); ok {
		return n, rest
	}
	return "data", v
}

// runCoordinator serves the scatter-gather front end: no local tables,
// queries fan out to the fleet's workers and merge through the engine.
// The fleet description comes from -fleet (and is recorded alongside the
// durable catalog when -data-dir is set) or, on restart, from the record
// a previous run saved.
func runCoordinator(addr, fleetFile, dataDir string, cfg cluster.Config) {
	var store *dbstore.Store
	if dataDir != "" {
		fd, err := storepkg.OpenFileDisk(filepath.Join(dataDir, "blobs"))
		if err != nil {
			log.Fatalf("scanrawd: %v", err)
		}
		store = dbstore.NewStore(fd)
	}
	var data []byte
	switch {
	case fleetFile != "":
		raw, err := os.ReadFile(fleetFile)
		if err != nil {
			log.Fatalf("scanrawd: %v", err)
		}
		data = raw
	case store != nil:
		raw, ok, err := store.LoadFleetConfig()
		if err != nil {
			log.Fatalf("scanrawd: %v", err)
		}
		if !ok {
			log.Fatalf("scanrawd: -coordinator needs -fleet (no recorded fleet config under %s)", dataDir)
		}
		log.Printf("fleet config recovered from %s", dataDir)
		data = raw
	default:
		log.Fatalf("scanrawd: -coordinator needs -fleet <config.json>")
	}
	fleet, err := cluster.ParseFleet(data)
	if err != nil {
		log.Fatalf("scanrawd: %v", err)
	}
	if store != nil && fleetFile != "" {
		if err := store.SaveFleetConfig(data); err != nil {
			log.Fatalf("scanrawd: recording fleet config: %v", err)
		}
	}
	co := cluster.NewCoordinator(fleet, cfg)
	defer co.Close()

	httpSrv := &http.Server{Addr: addr, Handler: co.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("scanrawd coordinating %d peer(s), %d table(s) on %s",
		len(fleet.PeerAddrs()), len(fleet.Tables()), addr)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("scanrawd: %v", err)
		}
	case <-ctx.Done():
		log.Printf("scanrawd: coordinator shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("scanrawd: http shutdown: %v", err)
		}
		<-serveErr
	}
}

func main() {
	var (
		files      multiFlag
		schemas    multiFlag
		tsvTables  multiFlag
		samTables  multiFlag
		addr       = flag.String("addr", ":8080", "listen address")
		policyStr  = flag.String("policy", "speculative", "write policy")
		workers    = flag.Int("workers", 8, "worker threads per operator (0 = sequential)")
		consumeW   = flag.Int("consume-workers", 1, "must be 1: consume is serial; kept for the benchmark harness until ROADMAP item 2a")
		chunkLines = flag.Int("chunk", 1<<13, "lines per chunk")
		cacheSz    = flag.Int("cache", 32, "binary cache budget in full-width chunks at 8 bytes a value; int32 pages cost less, string columns more")
		diskMBps   = flag.Int("disk", 0, "simulated disk bandwidth in MB/s (0 = unthrottled)")
		dataDir    = flag.String("data-dir", "", "persist loaded data and catalog under this directory (empty = in-memory only)")
		stats      = flag.Bool("stats", true, "collect min/max statistics while converting")
		colGroups  = flag.Int("colgroups", 1, "must be 1: pages are per column; kept for the benchmark harness until ROADMAP item 2a")
		specPolicy = flag.String("spec-policy", "payoff", "speculative loading order: payoff (workload-ranked) or scan (file order)")
		maxConc    = flag.Int("max-concurrent", 32, "admission slots: queries in flight before 429")
		olaErr     = flag.Float64("ola-error", 0, "online aggregation default: run eligible aggregates as sampled scans stopping at this relative error (0 = only on explicit ?error=)")
		olaConf    = flag.Float64("ola-confidence", 0.95, "online aggregation: default confidence level for error bounds")
		coalesce   = flag.Duration("coalesce", 2*time.Millisecond, "how long a query that must convert raw data waits at an idle table for companions to share its scan (negative never waits)")
		timeout    = flag.Duration("timeout", 0, "default per-query timeout (0 = none)")

		coordinator  = flag.Bool("coordinator", false, "run as fleet coordinator: scatter queries to workers, merge partials (no local data)")
		fleetFile    = flag.String("fleet", "", "fleet config JSON (peers + table ownership); with -data-dir it is recorded durably and becomes optional on restart")
		peerTimeout  = flag.Duration("peer-timeout", 30*time.Second, "coordinator: per-peer exec attempt deadline")
		retryBackoff = flag.Duration("retry-backoff", 50*time.Millisecond, "coordinator: backoff before a shard retry")
		healthEvery  = flag.Duration("health-interval", 2*time.Second, "coordinator: /healthz probe period (negative disables)")
	)
	flag.Var(&files, "file", "raw file to serve, as path or name=path (repeatable)")
	flag.Var(&schemas, "schema", "schema as 'name:type,...' or table=spec (repeatable)")
	flag.Var(&tsvTables, "tsv", "table name whose file is tab-delimited (repeatable)")
	flag.Var(&samTables, "sam", "table name using the SAM schema + tab delimiter (repeatable)")
	flag.Parse()
	if *consumeW != 0 && *consumeW != 1 {
		fmt.Fprintf(os.Stderr, "scanrawd: -consume-workers %d: consume is serial, so it must be 0 or 1\n", *consumeW)
		os.Exit(2)
	}
	if *colGroups != 1 {
		fmt.Fprintf(os.Stderr, "scanrawd: -colgroups %d: pages are per column, so it must be 1\n", *colGroups)
		os.Exit(2)
	}

	if *coordinator {
		runCoordinator(*addr, *fleetFile, *dataDir, cluster.Config{
			PeerTimeout:    *peerTimeout,
			RetryBackoff:   *retryBackoff,
			HealthInterval: *healthEvery,
			DefaultTimeout: *timeout,
		})
		return
	}
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "usage: scanrawd -file <raw file> -schema <spec> [-addr :8080] ...")
		flag.PrintDefaults()
		os.Exit(2)
	}
	policy, err := scanraw.ParseWritePolicy(*policyStr)
	if err != nil {
		log.Fatalf("scanrawd: %v", err)
	}
	spec, err := scanraw.ParseSpecPolicy(*specPolicy)
	if err != nil {
		log.Fatalf("scanrawd: %v", err)
	}

	schemaByTable := make(map[string]string)
	for _, s := range schemas {
		name, spec := splitNamed(s)
		schemaByTable[name] = spec
	}
	isTSV := make(map[string]bool)
	for _, n := range tsvTables {
		isTSV[n] = true
	}
	isSAM := make(map[string]bool)
	for _, n := range samTables {
		isSAM[n] = true
	}

	var diskCfg vdisk.Config
	if *diskMBps > 0 {
		diskCfg.ReadBandwidth = int64(*diskMBps) << 20
		diskCfg.WriteBandwidth = int64(*diskMBps) << 20
	}

	// Storage assembly. Without -data-dir everything lives in memory (the
	// simulated disk). With it, blobs go to fsynced files and the catalog is
	// journaled to a manifest, so loaded chunks survive restarts; a non-zero
	// -disk throttle wraps the file backend in the same bandwidth model.
	var (
		disk  storepkg.Disk
		man   *storepkg.Manifest
		store *dbstore.Store
	)
	if *dataDir == "" {
		disk = vdisk.New(diskCfg)
		store = dbstore.NewStore(disk)
	} else {
		fd, err := storepkg.OpenFileDisk(filepath.Join(*dataDir, "blobs"))
		if err != nil {
			log.Fatalf("scanrawd: %v", err)
		}
		if *diskMBps > 0 {
			disk = vdisk.NewBacked(diskCfg, fd)
		} else {
			disk = fd
		}
		if man, err = storepkg.OpenManifest(*dataDir); err != nil {
			log.Fatalf("scanrawd: %v", err)
		}
		if store, err = dbstore.OpenDurable(disk, man); err != nil {
			log.Fatalf("scanrawd: %v", err)
		}
		rec := store.RecoveryStats()
		log.Printf("recovered %d table(s) from %s: %d chunk(s) warm, %d invalidated, %d torn log byte(s), %dms",
			rec.TablesRecovered, *dataDir, rec.ChunksRecovered, rec.ChunksInvalidated,
			rec.Replay.TornBytes, rec.RecoveryMS)
	}
	srv := server.New(store, server.Config{
		MaxConcurrent:  *maxConc,
		CoalesceWindow: *coalesce,
		DefaultTimeout: *timeout,
		OLAError:       *olaErr,
		OLAConfidence:  *olaConf,
	})

	for _, f := range files {
		name, path := splitNamed(f)
		raw, err := os.ReadFile(path)
		if err != nil {
			log.Fatalf("scanrawd: %v", err)
		}
		var sch *schema.Schema
		delim := byte(',')
		switch {
		case isSAM[name]:
			sch, delim = sam.Schema(), '\t'
		default:
			spec, ok := schemaByTable[name]
			if !ok {
				log.Fatalf("scanrawd: no -schema for table %q", name)
			}
			if sch, err = schema.ParseSpec(spec); err != nil {
				log.Fatalf("scanrawd: table %q: %v", name, err)
			}
			if isTSV[name] {
				delim = '\t'
			}
		}
		blob := "raw/" + name
		if err := stage(disk, blob, raw); err != nil {
			log.Fatalf("scanrawd: table %q: %v", name, err)
		}
		var table *dbstore.Table
		if man != nil {
			// Durable store: stage with the raw file's fingerprint so a
			// restart keeps persisted chunks only while the file's contents
			// are unchanged.
			fp := storepkg.FingerprintBytes(raw)
			if fi, err := os.Stat(path); err == nil {
				fp.ModTimeNs = fi.ModTime().UnixNano()
			}
			table, err = store.EnsureTable(name, sch, blob, fp)
		} else {
			table, err = store.CreateTable(name, sch, blob)
		}
		if err != nil {
			log.Fatalf("scanrawd: %v", err)
		}
		tblCfg := scanraw.Config{
			Workers:      *workers,
			ChunkLines:   *chunkLines,
			CacheChunks:  *cacheSz,
			Policy:       policy,
			Safeguard:    true,
			Delim:        delim,
			CollectStats: *stats,
			Speculation:  spec,
		}
		if err := srv.AddTable(table, tblCfg); err != nil {
			log.Fatalf("scanrawd: %v", err)
		}
		log.Printf("serving table %q (%d bytes, schema %s)", name, len(raw), sch)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("scanrawd listening on %s (policy %s, %d slots, %v coalescing window)",
		*addr, policy, *maxConc, *coalesce)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("scanrawd: %v", err)
		}
	case <-ctx.Done():
		// Graceful shutdown: stop accepting connections, drain in-flight
		// queries and background speculative writes, checkpoint the catalog,
		// and only then close the manifest — main waits for all of it.
		log.Printf("scanrawd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("scanrawd: http shutdown: %v", err)
		}
		<-serveErr
		if err := srv.Drain(shutdownCtx); err != nil {
			log.Printf("scanrawd: drain: %v", err)
		}
		if man != nil {
			if err := man.Close(); err != nil {
				log.Printf("scanrawd: closing manifest: %v", err)
			}
		}
		log.Printf("scanrawd: shutdown complete")
	}
}
