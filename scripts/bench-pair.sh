#!/usr/bin/env bash
# Paired runs of the repository benchmark: this checkout against BASE.
#
#   bash scripts/bench-pair.sh WORKLOAD BASE PAIRS [TRACE]   (or: make bench-pair)
#
# benchmark/README.md, "How to claim a gain on a moved metric": run pairs
# of untraced runs, alternate which side goes first, and claim only what
# wins nine pairs in ten by more than the distance between the base's
# quartiles. BASE is exported with git archive into .bench_build/ (ignored
# by git), so both sides build from committed or working-tree source with
# the benchmark's own run.sh. BASE runs twice a pair; its second run is the
# A/A side, which differs from the first in nothing but when it ran, so its
# columns are the host's noise beside the gain (as in bench-rung.sh).
# Prints, per metric, both medians, both quartile distances, the pairs this
# checkout won, and the A/A median and pairs won. TRACE=1 pairs traced
# runs instead, whose result line carries the per-layer metrics too (those
# that are zero in every run, because the workload has no such layer, are
# left out); gains are still claimed on untraced pairs only.
set -euo pipefail
workload="${1:?usage: bench-pair.sh WORKLOAD BASE PAIRS}"
base="${2:?usage: bench-pair.sh WORKLOAD BASE PAIRS}"
pairs="${3:?usage: bench-pair.sh WORKLOAD BASE PAIRS}"
trace="${4:-0}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
rev="$(git rev-parse --short "$base^{commit}")"
basedir="$root/.bench_build/base-$rev"
rm -rf "$basedir"
mkdir -p "$basedir"
git archive "$rev" | tar -x -C "$basedir"
out="$root/.bench_build/pair-$workload"
rm -rf "$out"
mkdir -p "$out"

# one SIDE DIR N: one untraced run; keeps "metric value" lines from the
# result line and the candidates line before it, and fails on a failed op.
one() {
	local log="$out/$1-$3.log"
	(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 15 --trace "$trace") >"$log" 2>&1 ||
		{ tail -5 "$log" >&2; exit 1; }
	tail -1 "$log" | grep -q '"failed":0,' || { echo "$1 run $3: failed operations" >&2; tail -1 "$log" >&2; exit 1; }
	tail -2 "$log" | grep -o '"[a-z0-9_.]*":{"value":[^,]*' |
		sed 's/^"\([^"]*\)":{"value":/\1 /' >"$out/$1-$3.txt"
}

for n in $(seq 1 "$pairs"); do
	if ((n % 2)); then order="base head aa"; else order="aa head base"; fi
	for side in $order; do
		echo "pair $n/$pairs: $side" >&2
		if [ "$side" = head ]; then one head "$root" "$n"; else one "$side" "$basedir" "$n"; fi
	done
done

echo "bench-pair  workload $workload  base $rev  head $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo +uncommitted)  pairs $pairs  seed 1  seconds 15  trace $trace"
grep -m1 '^host ' "$out/head-1.log"
# Whether the host backs huge-page advice (internal/hugepage): the bracketed
# word is the mode, and "never" leaves every table on 4 KiB pages.
echo "thp $(cat /sys/kernel/mm/transparent_hugepage/enabled 2>/dev/null || echo unknown)"
echo "a/a is base's own second run each pair: its distance from base is what the host adds"
# "better" per metric, from BENCHMARK.json (one metric per line there).
sed -n 's/.*"name": "\([^"]*\)".*"better": "\([^"]*\)".*/\1 \2/p' BENCHMARK.json >"$out/better.txt"
for n in $(seq 1 "$pairs"); do
	for side in base head aa; do sed "s/^/$side $n /" "$out/$side-$n.txt"; done
done | awk -v pairs="$pairs" '
	function quantile(a, n, q,    pos, lo) { pos = (n - 1) * q; lo = int(pos); return a[lo + 1] + (pos - lo) * (a[(lo + 2 > n) ? n : lo + 2] - a[lo + 1]) }
	function summarize(side, m, res,    n, i, j, t, a) {
		for (n = 1; n <= pairs; n++) a[n] = v[side, n, m]
		for (i = 2; i <= pairs; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		res["med"] = quantile(a, pairs, 0.5); res["iqr"] = quantile(a, pairs, 0.75) - quantile(a, pairs, 0.25)
	}
	# won SIDE M: pairs in which SIDE read better than base.
	function won(side, m,    n, d, w) {
		for (n = 1; n <= pairs; n++) {
			d = v[side, n, m] - v["base", n, m]
			if ((better[m] == "lower" && d < 0) || (better[m] == "higher" && d > 0)) w++
		}
		return w + 0
	}
	NR == FNR { better[$1] = $2; next }
	{ v[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 } }
	END {
		printf "%-30s %-7s %12s %10s %12s %10s %9s %12s %8s\n", "metric", "better", "base median", "base iqr", "head median", "head iqr", "head won", "a/a median", "a/a won"
		for (k = 1; k <= nm; k++) {
			m = order[k]
			summarize("base", m, b); summarize("head", m, h); summarize("aa", m, a)
			if (b["med"] == 0 && h["med"] == 0 && b["iqr"] == 0 && h["iqr"] == 0) continue
			printf "%-30s %-7s %12.6g %10.4g %12.6g %10.4g %6d/%-2d %12.6g %5d/%d\n", m, better[m], b["med"], b["iqr"], h["med"], h["iqr"], won("head", m), pairs, a["med"], won("aa", m), pairs
		}
	}' "$out/better.txt" -
