#!/bin/sh
# Distributed scatter-gather demo: a 3-node scanrawd fleet behind a
# coordinator.
#
# Two workers each serve their own half of a generated orders file
# (split-files deployment: worker 2's chunks are placed after worker 1's
# in the global chunk space by `base`), a third worker replicates the
# second half so the fleet survives losing a peer. The coordinator
# scatters each query to the owning workers, merges the returned partials
# through the engine merge tree, and answers on the same /query wire a
# single scanrawd uses.
#
# Run from the repository root: ./examples/fleet/run.sh
set -e
GO=${GO:-go}
DIR=$(mktemp -d)
trap 'kill $W1 $W2 $W3 $CO 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$DIR"' EXIT

echo "== building scanrawd"
$GO build -o "$DIR/scanrawd" ./cmd/scanrawd

echo "== generating orders.csv split in two halves (4000 + 4000 rows)"
awk 'BEGIN { for (i = 0; i < 4000; i++) printf "%d,%d,%d\n", i, i % 97, (i * 7) % 1000 }' > "$DIR/orders.1.csv"
awk 'BEGIN { for (i = 4000; i < 8000; i++) printf "%d,%d,%d\n", i, i % 97, (i * 7) % 1000 }' > "$DIR/orders.2.csv"

# Chunk geometry: -chunk 500 → 8 chunks per half. Worker 1 owns global
# chunks [0,8); workers 2 and 3 both own [8,16) (replicas) with base 8
# mapping their local chunk 0 to global chunk 8.
cat > "$DIR/fleet.json" <<'EOF'
{
  "peers": [
    {"addr": "127.0.0.1:9101", "owns": [{"table": "orders", "lo": 0, "hi": 8, "base": 0}]},
    {"addr": "127.0.0.1:9102", "owns": [{"table": "orders", "lo": 0, "hi": 8, "base": 8}]},
    {"addr": "127.0.0.1:9103", "owns": [{"table": "orders", "lo": 0, "hi": 8, "base": 8}]}
  ],
  "tables": {"orders": {"schema": "id:int64,customer:int64,amount:int64"}}
}
EOF

echo "== starting 3 workers + coordinator"
"$DIR/scanrawd" -addr 127.0.0.1:9101 -file "orders=$DIR/orders.1.csv" \
    -schema 'orders=id:int64,customer:int64,amount:int64' -chunk 500 & W1=$!
"$DIR/scanrawd" -addr 127.0.0.1:9102 -file "orders=$DIR/orders.2.csv" \
    -schema 'orders=id:int64,customer:int64,amount:int64' -chunk 500 & W2=$!
"$DIR/scanrawd" -addr 127.0.0.1:9103 -file "orders=$DIR/orders.2.csv" \
    -schema 'orders=id:int64,customer:int64,amount:int64' -chunk 500 & W3=$!
"$DIR/scanrawd" -addr 127.0.0.1:9100 -coordinator -fleet "$DIR/fleet.json" \
    -health-interval 500ms & CO=$!

for port in 9101 9102 9103 9100; do
    for _ in $(seq 1 50); do
        curl -sf "http://127.0.0.1:$port/healthz" > /dev/null 2>&1 && break
        sleep 0.1
    done
done

q() {
    echo "-> $1"
    curl -s http://127.0.0.1:9100/query -d "{\"sql\": \"$1\"}"
    echo
}

echo "== querying the fleet through the coordinator"
q "SELECT COUNT(*), SUM(amount) FROM orders"
q "SELECT customer, SUM(amount), COUNT(*) AS n FROM orders WHERE amount > 900 GROUP BY customer HAVING n > 5"
q "SELECT id, amount FROM orders ORDER BY amount DESC LIMIT 3"

echo "== killing worker 2 mid-fleet; its replica (worker 3) takes over"
kill -9 $W2
q "SELECT COUNT(*), SUM(amount) FROM orders"

echo "== coordinator metrics (note cluster_peer_failures / cluster_retries)"
curl -s http://127.0.0.1:9100/metrics
echo
