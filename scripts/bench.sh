#!/bin/sh
# Runs the benchmark suite over the hot packages and records the results as
# JSON in the file named by BENCH_OUT (default below): one object per
# benchmark with ns/op plus the derived headline ratios —
# serial-vs-parallel consume speedup, the full-scan-vs-early-termination
# speedup for a streamed LIMIT query, the distributed-vs-single-node
# latency ratio for a scatter-gathered GROUP BY
# (distributed_merge_overhead; < 1 means the parallel fleet scan outruns
# the codec + HTTP + merge cost), the fused-vs-two-stage conversion
# speedup (convert_kernel_speedup: BenchmarkTokParseChunk64 over
# BenchmarkFusedChunk64 on the same 64-column chunk), and the
# column-group storage payoff (partial_width_hit_speedup: a
# 2-of-32-column query over a warm table on a throttled disk,
# full-width pages over per-column pages — how much narrow queries gain
# from reading only the columns they need), and the online-aggregation
# payoff (ola_time_to_bound_speedup: a full-scan SUM over the sampled
# scan that stops at a 5% bound with 95% confidence).
#
# Each benchmark runs -count times and the best run is recorded: the
# minimum is the least contaminated by scheduler noise on a shared
# machine, which keeps bench_compare.sh from flagging phantom regressions.
set -e
GO=${GO:-go}
COUNT=${COUNT:-3}

# The invariants build tag adds per-Get/Put bookkeeping (mutex-guarded
# pointer sets) to the chunk pools, which would skew every hot-path number.
# Benchmarks must run with the tag OFF; refuse if the caller smuggled it in
# through GOFLAGS.
case "${GOFLAGS:-}" in
*invariants*)
    echo "bench.sh: refusing to benchmark with -tags invariants (GOFLAGS=$GOFLAGS)" >&2
    echo "bench.sh: the invariant layer's pool bookkeeping distorts ns/op" >&2
    exit 1
    ;;
esac
OUT=${BENCH_OUT:-BENCH_pr10.json}
TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

$GO test -run xxx -bench . -benchmem -benchtime 20x -count "$COUNT" \
    ./internal/tok/ ./internal/parse/ ./internal/kernel/ ./internal/engine/ \
    ./internal/queryapi/ ./internal/server/ | tee "$TMP"
$GO test -run xxx -bench 'BenchmarkConsume|BenchmarkLimit|BenchmarkNarrowQuery' -benchtime 10x -count "$COUNT" \
    ./internal/scanraw/ | tee -a "$TMP"
$GO test -run xxx -bench 'BenchmarkSingleNodeQuery|BenchmarkDistributedQuery' -benchtime 10x -count "$COUNT" \
    ./internal/cluster/ | tee -a "$TMP"
$GO test -run xxx -bench 'BenchmarkOLAFullScan|BenchmarkOLATimeToBound' -benchtime 10x -count "$COUNT" \
    ./internal/ola/ | tee -a "$TMP"

awk '
/^Benchmark/ {
    name = $1; ns = $3 + 0
    bop = ""; aop = ""
    for (i = 4; i <= NF; i++) {
        if ($(i) == "B/op") bop = $(i - 1)
        if ($(i) == "allocs/op") aop = $(i - 1)
    }
    if (!(name in best)) order[++n] = name
    if (!(name in best) || ns < best[name]) {
        best[name] = ns; bytes[name] = bop; allocs[name] = aop
    }
}
END {
    print "{"
    print "  \"benchmarks\": ["
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s", name, best[name]
        if (bytes[name] != "") printf ", \"bytes_per_op\": %s", bytes[name]
        if (allocs[name] != "") printf ", \"allocs_per_op\": %s", allocs[name]
        printf "}"
        if (i < n) printf ","
        printf "\n"
        if (name ~ /^BenchmarkConsumeSerial/) serial = best[name]
        if (name ~ /^BenchmarkConsumeParallel8/) par = best[name]
        if (name ~ /^BenchmarkLimitFullScan/) full = best[name]
        if (name ~ /^BenchmarkLimitEarlyTerm/) early = best[name]
        if (name ~ /^BenchmarkSingleNodeQuery/) single = best[name]
        if (name ~ /^BenchmarkDistributedQuery/) dist = best[name]
        if (name ~ /^BenchmarkFusedChunk64/) fused = best[name]
        if (name ~ /^BenchmarkTokParseChunk64/) tokparse = best[name]
        if (name ~ /^BenchmarkNarrowQueryColGroup/) narrowcg = best[name]
        if (name ~ /^BenchmarkNarrowQueryFullWidth/) narrowfw = best[name]
        if (name ~ /^BenchmarkOLAFullScan/) olafull = best[name]
        if (name ~ /^BenchmarkOLATimeToBound/) olabound = best[name]
    }
    print "  ],"
    if (serial > 0 && par > 0)
        printf "  \"consume_parallel_speedup\": %.2f,\n", serial / par
    if (full > 0 && early > 0)
        printf "  \"limit_early_term_speedup\": %.2f,\n", full / early
    if (single > 0 && dist > 0)
        printf "  \"distributed_merge_overhead\": %.2f,\n", dist / single
    if (fused > 0 && tokparse > 0)
        printf "  \"convert_kernel_speedup\": %.2f,\n", tokparse / fused
    if (narrowcg > 0 && narrowfw > 0)
        printf "  \"partial_width_hit_speedup\": %.2f,\n", narrowfw / narrowcg
    if (olafull > 0 && olabound > 0)
        printf "  \"ola_time_to_bound_speedup\": %.2f,\n", olafull / olabound
    printf "  \"date\": \"%s\"\n", strftime("%Y-%m-%d")
    print "}"
}' "$TMP" > "$OUT"
echo "wrote $OUT"
