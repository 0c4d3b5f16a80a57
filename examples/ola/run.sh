#!/bin/sh
# Online aggregation demo: converging estimates with confidence bounds
# and error-driven early termination over a raw CSV.
#
# A scanrawd serves a generated 200k-row sales file. The same aggregate
# runs three ways: exactly (the baseline full scan), as an online
# aggregation stopping when the 95% confidence bound falls below 2%
# relative error (?error=0.02 — the scan samples chunks in a seeded
# random permutation and stops early), and as an NDJSON stream showing
# the estimate converge line by line. A GROUP BY variant shows per-group
# bounds, and /metrics shows the ola counters at the end.
#
# Run from the repository root: ./examples/ola/run.sh
set -e
GO=${GO:-go}
DIR=$(mktemp -d)
trap 'kill $SRV 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$DIR"' EXIT

echo "== building scanrawd"
$GO build -o "$DIR/scanrawd" ./cmd/scanrawd

echo "== generating sales.csv (200000 rows: region, units, cents)"
awk 'BEGIN {
    srand(7)
    for (i = 0; i < 200000; i++)
        printf "%d,%d,%d\n", int(rand() * 8), int(rand() * 100), int(rand() * 10000)
}' > "$DIR/sales.csv"

echo "== starting scanrawd (-chunk 2000 -> 100 chunks)"
"$DIR/scanrawd" -addr 127.0.0.1:9190 -file "sales=$DIR/sales.csv" \
    -schema 'sales=region:int64,units:int64,cents:int64' -chunk 2000 & SRV=$!
for _ in $(seq 1 50); do
    curl -sf "http://127.0.0.1:9190/healthz" > /dev/null 2>&1 && break
    sleep 0.1
done

q() { # sql [query-params]
    echo "-> $1  ${2:+(?$2)}"
    curl -s "http://127.0.0.1:9190/query${2:+?$2}" -d "{\"sql\": \"$1\"}"
    echo
    echo
}

echo
echo "== exact baseline: full scan"
q 'SELECT SUM(cents) FROM sales'

echo "== online aggregation: stop at 2% relative error, 95% confidence"
q 'SELECT SUM(cents) FROM sales' 'error=0.02&confidence=0.95&seed=42'

echo "== the same, streamed: watch the bound shrink line by line"
echo "-> SELECT AVG(cents) FROM sales  (?stream=ndjson&error=0.01)"
curl -s "http://127.0.0.1:9190/query?stream=ndjson&error=0.01&seed=7" \
    -d '{"sql": "SELECT AVG(cents) FROM sales"}'
echo

echo "== grouped estimates: per-group confidence bounds"
q 'SELECT region, SUM(units), AVG(cents) FROM sales GROUP BY region' 'error=0.05&seed=11'

echo "== error=0: the sampled scan runs to completion and the answer is exact"
q 'SELECT COUNT(*) FROM sales WHERE cents < 5000' 'error=0'

echo "== ola serving counters"
curl -s http://127.0.0.1:9190/metrics | tr ',' '\n' | grep -E 'ola_' | sed 's/[{}]//g'
echo
