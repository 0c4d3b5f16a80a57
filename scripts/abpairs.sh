#!/usr/bin/env bash
# abpairs.sh — alternating A/B runs of the end-to-end benchmark.
#
#   scripts/abpairs.sh --workload W [--seconds S] [--seed N] [--pairs P] A B
#
# Builds commits A and B each in its own git worktree (in a temporary
# directory, removed on exit) and runs
#
#   benchmark/run.sh --workload W --seconds S --seed N
#
# on them alternately for P pairs (default 5): pair i uses seed N+i-1
# (default N = 101) and runs A first when i is odd, B first when it is even,
# so neither side always gets the warmer or the quieter slot. Then it prints,
# per end-to-end metric, each side's median and quartiles over its P runs and
# how many pairs each side won, by the metric's "better" direction in A's
# BENCHMARK.json; and each side's attempted and failed operations. Below
# that it prints the divisor check: each side's median, then each pair's
# A/B values, of host.slowdown, host.query_p50_wall_ms,
# proc.cpu_ms_per_query and (where the workload reports it)
# server.coalesced_share, read from each run's log table. A gain that shows
# in the timings but not in host.query_p50_wall_ms or
# proc.cpu_ms_per_query came from the host meter's divisor, not the code.
#
# Giving the same commit as A and B is an A/A run: it measures how far the
# harness disagrees with itself. Nothing is written under benchmark/ of
# either checkout: run.sh keeps its build in .bench_build/ of the temporary
# worktrees. The worktrees are registered in the repository this runs in, so
# run it from a clone to measure changes not yet committed. Per-run logs are
# kept if ABPAIRS_KEEP is set to a directory.
set -euo pipefail

usage() {
	echo "usage: $(sed -n '4p' "$0" | sed 's/^# *//')" >&2
	exit 2
}

workload="" seconds=10 seed=101 pairs=5
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload="$2"; shift 2 ;;
	--seconds) seconds="$2"; shift 2 ;;
	--seed) seed="$2"; shift 2 ;;
	--pairs) pairs="$2"; shift 2 ;;
	-h | --help) usage ;;
	--*) echo "abpairs: unknown option $1" >&2; usage ;;
	*) break ;;
	esac
done
[ -n "$workload" ] && [ $# -eq 2 ] || usage

repo="$(git rev-parse --show-toplevel)"
a_rev="$(git -C "$repo" rev-parse --verify "$1^{commit}")"
b_rev="$(git -C "$repo" rev-parse --verify "$2^{commit}")"

work="$(mktemp -d "${TMPDIR:-/tmp}/abpairs.XXXXXX")"
cleanup() {
	for side in a b; do
		[ -d "$work/$side" ] && git -C "$repo" worktree remove --force "$work/$side" || true
	done
	git -C "$repo" worktree prune
	if [ -n "${ABPAIRS_KEEP:-}" ]; then
		mkdir -p "$ABPAIRS_KEEP" && cp "$work"/*.log "$ABPAIRS_KEEP"/ 2>/dev/null || true
	fi
	rm -rf "$work"
}
trap cleanup EXIT
git -C "$repo" worktree add --quiet --detach "$work/a" "$a_rev"
git -C "$repo" worktree add --quiet --detach "$work/b" "$b_rev"

# run SIDE PAIR SEED: one benchmark run; its result line goes to SIDE.results
# as "pair attempted failed name=value ...".
run() {
	local side="$1" pair="$2" s="$3" log="$work/$1-$2.log"
	echo "abpairs: pair $pair, side ${side^^} (seed $s)" >&2
	if ! bash "$work/$side/benchmark/run.sh" --workload "$workload" --seconds "$seconds" --seed "$s" >"$log" 2>&1; then
		echo "abpairs: side ${side^^} pair $pair failed; last lines of its log:" >&2
		tail -5 "$log" >&2
	fi
	local line
	line="$(grep '^{"correct"' "$log" | tail -1 || true)"
	[ -n "$line" ] || { echo "abpairs: side ${side^^} pair $pair printed no result" >&2; exit 1; }
	{
		printf '%s ' "$pair"
		printf '%s' "$line" | grep -o '"\(attempted\|failed\)":[0-9]*' | cut -d: -f2 | tr '\n' ' '
		printf '%s' "$line" | grep -o '"[A-Za-z0-9_.]*":{"value":[-+0-9.eE]*' |
			sed 's/^"\([^"]*\)":{"value":/\1=/' | tr '\n' ' '
		echo
	} >>"$work/$side.results"
	# The divisor check's metrics, as "pair name value", from the log table.
	awk -v p="$pair" -v wl="$workload" '$1 == wl && $2 ~ /^(host\.slowdown|host\.query_p50_wall_ms|proc\.cpu_ms_per_query|server\.coalesced_share)$/ { print p, $2, $3 }' \
		"$log" >>"$work/$side.host"
}

for i in $(seq 1 "$pairs"); do
	s=$((seed + i - 1))
	if [ $((i % 2)) -eq 1 ]; then
		run a "$i" "$s"; run b "$i" "$s"
	else
		run b "$i" "$s"; run a "$i" "$s"
	fi
done

# The "better" direction of each end-to-end metric, from A's BENCHMARK.json.
awk '/"name":/ { gsub(/[",]/, "", $2); name = $2 } /"better":/ { gsub(/[",]/, "", $2); print name, $2 }' \
	"$work/a/BENCHMARK.json" >"$work/better"

# Shared by both tables: isort sorts v[1..n]; stats sorts v[1..n] and sets
# med, q1, q3; sortkeys fills out[1..] with set's keys, sorted, and returns
# how many there are.
awklib='
	function isort(v, n,    i, j, t) { for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t } }
	function stats(v, n) { isort(v, n); med = quant(v, n, 0.5); q1 = quant(v, n, 0.25); q3 = quant(v, n, 0.75) }
	function quant(v, n, p,    h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
	function sortkeys(set, out,    n, k) { n = 0; for (k in set) out[++n] = k; isort(out, n); return n }'

echo
echo "workload $workload, $pairs pairs, --seconds $seconds, seeds $seed..$((seed + pairs - 1))"
echo "A = $a_rev"
echo "B = $b_rev"
awk -v better="$work/better" "$awklib"'
	BEGIN { while ((getline l < better) > 0) { split(l, f, " "); dir[f[1]] = f[2] } }
	{
		side = (FILENAME ~ /a\.results$/) ? "A" : "B"
		pair = $1; att[side] += $2; fail[side] += $3
		for (i = 4; i <= NF; i++) { split($i, kv, "="); val[side, kv[1], pair] = kv[2]; names[kv[1]] = 1 }
		if (pair > np) np = pair
	}
	END {
		printf "%-24s %32s %32s %9s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "wins A:B"
		nm = sortkeys(names, order)
		for (k = 1; k <= nm; k++) {
			m = order[k]; line = sprintf("%-24s", m); wa = wb = 0
			for (s = 1; s <= 2; s++) {
				side = s == 1 ? "A" : "B"; n = 0; delete v
				for (p = 1; p <= np; p++) if ((side, m, p) in val) v[++n] = val[side, m, p] + 0
				if (n == 0) { line = line sprintf(" %32s", "-"); continue }
				stats(v, n); line = line sprintf(" %32s", sprintf("%.4g [%.4g, %.4g]", med, q1, q3))
			}
			for (p = 1; p <= np; p++) {
				if (!(("A", m, p) in val) || !(("B", m, p) in val)) continue
				a = val["A", m, p] + 0; b = val["B", m, p] + 0
				if (a == b || !(m in dir)) continue
				if ((dir[m] == "lower") == (a < b)) wa++; else wb++
			}
			print line sprintf(" %9s", (m in dir) ? wa ":" wb : "-")
		}
		printf "operations: A %d attempted, %d failed; B %d attempted, %d failed\n", att["A"], fail["A"], att["B"], fail["B"]
	}' "$work/a.results" "$work/b.results"

touch "$work/a.host" "$work/b.host"
awk "$awklib"'
	{ side = (FILENAME ~ /a\.host$/) ? "A" : "B"; val[side, $2, $1] = $3; names[$2] = 1; if ($1 > np) np = $1 }
	END {
		if (np == 0) exit
		print ""
		print "divisor check, from the run logs: median A | B, then A/B per pair"
		nm = sortkeys(names, order)
		for (k = 1; k <= nm; k++) {
			m = order[k]; line = sprintf("%-24s", m)
			for (s = 1; s <= 2; s++) {
				side = s == 1 ? "A" : "B"; n = 0; delete v
				for (p = 1; p <= np; p++) if ((side, m, p) in val) v[++n] = val[side, m, p] + 0
				if (n == 0) { line = line sprintf(" %9s", "-") } else { stats(v, n); line = line sprintf(" %9.4g", med) }
				if (s == 1) line = line " |"
			}
			line = line "   "
			for (p = 1; p <= np; p++) line = line sprintf(" %s/%s", ("A", m, p) in val ? val["A", m, p] + 0 : "-", ("B", m, p) in val ? val["B", m, p] + 0 : "-")
			print line
		}
	}' "$work/a.host" "$work/b.host"
