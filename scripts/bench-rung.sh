#!/usr/bin/env bash
# Paired runs of one package's go test -bench rung: this checkout against
# BASE.
#
#   bash scripts/bench-rung.sh RUNG BASE [ROUNDS] [BENCHTIME] [CPU] [PKG]   (or: make bench-rung)
#
# For a claim the repository benchmark's ladder cannot resolve: PKG's test
# binary (default generic) is built once per side — BASE exported with git
# archive into .bench_build/ (ignored by git), this
# checkout's PKG/bench_test.go copied over it so both sides run the same
# benchmarks — and the binaries run alternately at -test.cpu CPU (1, unless
# the benchmark is about two writers) for a fixed iteration count (default
# 2000000x for generic's nanosecond cells, 10000x for any other package's),
# the order flipped each round. BASE's binary runs twice a round; its second run
# is the A/A side, which differs from the first in nothing but when it ran,
# so its columns are the noise floor of the others. Prints, per benchmark
# and unit, both medians, both quartile distances, the rounds this checkout
# won, and the same for A/A.
set -euo pipefail
usage="usage: bench-rung.sh RUNG BASE [ROUNDS] [BENCHTIME] [CPU] [PKG]"
rung="${1:?$usage}"
base="${2:?$usage}"
rounds="${3:-12}"
cpu="${5:-1}"
pkg="${6:-generic}"
if [ "$pkg" = generic ]; then benchtime="${4:-2000000x}"; else benchtime="${4:-10000x}"; fi

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
rev="$(git rev-parse --short "$base^{commit}")"
[ -f "$pkg/bench_test.go" ] || { echo "bench-rung: $pkg/bench_test.go does not exist; PKG names a directory with a bench_test.go" >&2; exit 1; }
out="$root/.bench_build/rung"
rm -rf "$out"
mkdir -p "$out/base"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local XDG_CONFIG_HOME="$root/.bench_build/config"
git archive "$rev" | tar -x -C "$out/base"
cp "$pkg/bench_test.go" "$out/base/$pkg/bench_test.go"
(cd "$out/base" && go test -c -o "$out/base.test" "./$pkg")
go test -c -o "$out/head.test" "./$pkg"

# one SIDE BINARY N: one run; keeps "name unit value" per reported metric.
one() {
	local log="$out/$1-$3.log"
	(cd "$root/$pkg" && "$2" -test.run '^$' -test.bench "$rung" -test.cpu "$cpu" \
		-test.benchtime "$benchtime" -test.timeout 30m) >"$log" 2>&1 || { tail -5 "$log" >&2; exit 1; }
	awk '/^Benchmark/ { sub(/-[0-9]+$/, "", $1); for (i = 3; i < NF; i += 2) print $1, $(i + 1), $i }' "$log" >"$out/$1-$3.txt"
	[ -s "$out/$1-$3.txt" ] || { echo "$1 round $3: no benchmark matches $rung" >&2; exit 1; }
}

for n in $(seq 1 "$rounds"); do
	if ((n % 2)); then order="base head aa"; else order="aa head base"; fi
	for side in $order; do
		echo "round $n/$rounds: $side" >&2
		if [ "$side" = head ]; then one head "$out/head.test" "$n"; else one "$side" "$out/base.test" "$n"; fi
	done
done

echo "bench-rung  pkg $pkg  rung $rung  base $rev  head $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo +uncommitted)  rounds $rounds  benchtime $benchtime  cpu $cpu  GOGC ${GOGC:-100}"
grep -m1 '^cpu: ' "$out/head-1.log"
# Whether the host backs huge-page advice (internal/hugepage): the bracketed
# word is the mode, and "never" leaves every table on 4 KiB pages.
echo "thp $(cat /sys/kernel/mm/transparent_hugepage/enabled 2>/dev/null || echo unknown)"
echo "a/a is base's own second run each round: its distance from base is what the host adds"
for n in $(seq 1 "$rounds"); do
	for side in base head aa; do sed "s/^/$side $n /" "$out/$side-$n.txt"; done
done | awk -v rounds="$rounds" '
	function quantile(a, n, q,    pos, lo) { pos = (n - 1) * q; lo = int(pos); return a[lo + 1] + (pos - lo) * (a[(lo + 2 > n) ? n : lo + 2] - a[lo + 1]) }
	function summarize(side, m, res,    n, i, j, t, a) {
		for (n = 1; n <= rounds; n++) a[n] = v[side, n, m]
		for (i = 2; i <= rounds; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		res["med"] = quantile(a, rounds, 0.5); res["iqr"] = quantile(a, rounds, 0.75) - quantile(a, rounds, 0.25)
	}
	# won SIDE M: rounds in which SIDE read better than base (load: higher; every other unit: lower).
	function won(side, m, unit,    n, d, w) {
		for (n = 1; n <= rounds; n++) {
			d = v[side, n, m] - v["base", n, m]
			if ((unit == "load" && d > 0) || (unit != "load" && d < 0)) w++
		}
		return w + 0
	}
	{ m = $3 " " $4; v[$1, $2, m] = $5; if (!(m in seen)) { seen[m] = 1; order[++nm] = m; unit[m] = $4 } }
	END {
		printf "%-52s %-12s %11s %9s %11s %9s %8s %11s %8s\n", "benchmark", "unit", "base median", "base iqr", "head median", "head iqr", "head won", "a/a median", "a/a won"
		for (k = 1; k <= nm; k++) {
			m = order[k]; split(m, name, " ")
			summarize("base", m, b); summarize("head", m, h); summarize("aa", m, a)
			printf "%-52s %-12s %11.5g %9.3g %11.5g %9.3g %5d/%-2d %11.5g %5d/%d\n", name[1], unit[m], b["med"], b["iqr"], h["med"], h["iqr"], won("head", m, unit[m]), rounds, a["med"], won("aa", m, unit[m]), rounds
		}
	}'
