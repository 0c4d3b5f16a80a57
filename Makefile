# Tier-1 verification gate (see ROADMAP.md): `make check` must pass
# before every merge.

GO ?= go

.PHONY: check fmt vet build test bench-module race stress experiments-check lint invariants fuzz loc knobs unreached

check: fmt vet build test bench-module race lint invariants fuzz

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark harness (BENCHMARK.json) is its own module, so `./...` above
# never compiles it: vet and test it here, or an internal/ change that
# breaks its build goes unnoticed until the harness is next run.
bench-module:
	cd benchmark && $(GO) vet . && $(GO) test .

# The concurrency-heavy packages additionally run under the race
# detector: the operator pipeline/registry, the query server, the engine
# (the executor's top-k bound, read by the scan's driver, + differential
# test), the online-aggregation runner (sample-order reorder buffer, locked
# against the driver's Order), the
# cluster layer (coordinator fan-out + distributed differential test), and
# the storage layer (checkpoint-vs-append exclusion and recovery paths in
# store and dbstore are lock-heavy and were previously only race-tested
# transitively), plus the byte codec under all of the persisted and
# networked formats and the /query reply writer (an NDJSON stream takes rows
# from the scan while the handler may be failing it). The operator's
# serial-delivery contract test exists only under -race.
RACE_PKGS = ./internal/scanraw/... ./internal/server/... ./internal/engine/... ./internal/ola/... ./internal/cluster/... ./internal/kernel/... ./internal/workload/... ./internal/store/... ./internal/dbstore/... ./internal/wire/... ./internal/queryapi/...

race:
	$(GO) test -race $(RACE_PKGS)

# Schedule stress: every race-gated package's tests (RACE_PKGS) 50 times
# under the race detector at three scheduler widths — the north star's "50/50
# at GOMAXPROCS 1, 2 and 8". A test whose outcome depends on goroutine timing
# fails here long before it fails `make check`; CI runs it nightly. Fifty
# passes of the operator's tests outlast `go test`'s default 10-minute
# timeout (668–798 s per width on a 2-core host), hence -timeout. The whole
# target took 2,339 s (39 min) there, with GOFLAGS=-p=2.
stress:
	@for p in 1 2 8; do \
		echo "GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -race -timeout 30m -count=50 $(RACE_PKGS) || exit 1; \
	done

# Wall-clock checks: the shape checks of the paper-figure experiments
# (parallel beats sequential, wide chunks cost more than narrow, push-down
# beats standard conversion) and the three speed-up floors (fused kernel over
# tok+parse, OLA time-to-bound over the full scan, the row encoder's integers over
# strconv's; each >= 1.5, taken between interleaved runs inside one process
# — testutil.SpeedupFloor). One duration compared
# against another only means something with the package alone on the machine,
# hence -p 1 and the experiments build tag; `go test ./...` keeps the
# schedule-independent assertions. CI runs this nightly, after stress.
EXPERIMENT_PKGS = ./internal/bench/ ./internal/kernel/ ./internal/ola/ ./internal/queryapi/

experiments-check:
	$(GO) vet -tags experiments $(EXPERIMENT_PKGS)
	$(GO) test -p 1 -tags experiments -run 'TimingShapes|SpeedupFloor' -benchtime 10x -count=1 $(EXPERIMENT_PKGS)

# Project-specific static analysis (pin balance, pool pairing, goroutine
# exits, context threading, channel ops under locks, journal ordering,
# fsync-before-ack, decode bounds guards, CRC error flow, lock-order
# cycles) plus the unused-suppression pass. Stdlib-only; see
# cmd/scanrawlint and DESIGN.md §9/§14. That every analyzer fires on a
# fixture, honours a reasoned //lint:ignore, and notices each guarded
# statement of the real tree going missing is `go test ./internal/lint`
# (TestAnalyzersOnFixtures, TestMutantsKilled), part of `test` above.
lint:
	$(GO) run ./cmd/scanrawlint ./...

# Runtime invariant layer: pin-count underflow and double-recycle panics
# plus the pool gauges only exist under -tags invariants. The race-gated
# packages rerun under the tag with the race detector; the resource-owning
# packages rerun without it.
invariants:
	$(GO) test -tags invariants ./internal/cache/... ./internal/chunk/... ./internal/tok/... ./internal/parse/... ./internal/dbstore/... ./internal/store/...
	$(GO) test -race -tags invariants ./internal/scanraw/... ./internal/server/... ./internal/engine/... ./internal/ola/... ./internal/cluster/... ./internal/kernel/...

# Short fuzz smoke over the decoders that parse untrusted bytes — the
# primitive decoder under all of them (random bytes against a random
# sequence of reads), the manifest record/frame decoders (crash recovery reads whatever is on
# disk; segment records, whose numbers size a read, get a target of their own), the binary chunk codec's
# vector page decoder (a dictionary page that decodes carries codes that
# describe its strings), and the network-facing cluster decoders
# (serialized engine partials and frame payloads arrive over TCP) — plus
# the fused-kernel differential property (fused conversion equals the
# two-stage reference, or both error), the compiled LIKE matcher's (it
# equals the backtracking likeMatch), the expression evaluator's (a random
# tree, as a value and as a WHERE selection, equals the node-by-node
# reference, errors included), the aggregation's (grouped and scalar state,
# split over partials and merged through the wire, equals a row-at-a-time
# fold), the top-k heap's (a LIMIT over shuffled chunks split across partials
# equals a full canonical sort cut to k), the selection kernels' (each
# operator's loop, over every row or a subset, equals cmpTruth row by row,
# NaN, ±0 and the int32 edges included), the row encoder's (its bytes equal
# encoding/json's for the same row, its integers strconv.AppendInt's) and the
# raw scanner's (behind a disk of short reads it carves tok.SplitChunks'
# chunks and reads exact extents). A few seconds each is enough to catch
# structural regressions; long fuzz runs stay manual.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzWireDec -fuzztime=5s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzDecodeVector -fuzztime=5s ./internal/chunk
	$(GO) test -run='^$$' -fuzz=FuzzLikeMatch -fuzztime=5s ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzExprEval -fuzztime=5s ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzGroupAgg -fuzztime=5s ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzTopK -fuzztime=5s ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzSelect -fuzztime=5s ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRecord -fuzztime=5s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrames -fuzztime=5s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSegment -fuzztime=5s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzDecodePartial -fuzztime=5s ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrameMessage -fuzztime=5s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzFusedKernel -fuzztime=5s ./internal/kernel
	$(GO) test -run='^$$' -fuzz=FuzzEncodeRow -fuzztime=5s ./internal/queryapi
	$(GO) test -run='^$$' -fuzz=FuzzAppendInt -fuzztime=5s ./internal/queryapi
	$(GO) test -run='^$$' -fuzz=FuzzRawScanner -fuzztime=5s ./internal/scanraw

# The internal/ functions and methods no product binary links (every cmd/*,
# every examples/* and the benchmark harness, built with inlining off),
# minus the reasoned entries of scripts/unreached.allow. Code that only tests
# run is either deleted or named there; any output fails the target.
unreached:
	scripts/unreached.sh

# Non-test lines per internal/ package and in total — every line, then code
# only (neither blank nor a // comment) — so "the trend is down" (ROADMAP)
# has one command behind it.
loc:
	@tl=0; tc=0; for d in internal/*/; do \
		f=$$(ls $$d*.go | grep -v _test.go); \
		l=$$(cat $$f | wc -l); \
		c=$$(cat $$f | grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//'); \
		printf '%-20s %6d %6d\n' $$(basename $$d) $$l $$c; \
		tl=$$((tl + l)); tc=$$((tc + c)); \
	done; printf '%-20s %6d %6d\n' total $$tl $$tc

# The knob counts ROADMAP asks every CHANGES.md entry for, read from the
# source: exported fields of each settable struct, flags each command
# defines, and their total. The first two lines are the original pair.
knobs:
	@fields() { awk -v s="$$1" '$$0 == "type " s " struct {" {f=1; next} f && /^}/ {f=0} f && /^\t[A-Z][A-Za-z0-9]*[ \t]/ {n++} END {print n+0}' $$2; }; \
	flags() { cat $$(ls $$1/*.go | grep -v _test.go) | grep -oE 'flag\.(Bool|Duration|Float64|Int|Int64|Uint|Uint64|String|Var|Func|TextVar)\(' | wc -l; }; \
	t=0; row() { printf '%-23s%d\n' "$$1" $$2; t=$$((t + $$2)); }; \
	row 'scanraw.Config fields' $$(fields Config internal/scanraw/scanraw.go); \
	row 'scanrawd flags' $$(flags cmd/scanrawd); \
	row 'scanraw.Request fields' $$(fields Request internal/scanraw/scanraw.go); \
	row 'scanraw.Member fields' $$(fields Member internal/scanraw/registry.go); \
	row 'server.Config fields' $$(fields Config internal/server/server.go); \
	row 'cluster.Config fields' $$(fields Config internal/cluster/coordinator.go); \
	row 'vdisk.Config fields' $$(fields Config internal/vdisk/vdisk.go); \
	row 'ola.Config fields' $$(fields Config internal/ola/estimate.go); \
	row 'Options fields' $$(fields Options scanraw.go); \
	row 'scanraw flags' $$(flags cmd/scanraw); \
	printf '%-23s%d\n' total $$t
