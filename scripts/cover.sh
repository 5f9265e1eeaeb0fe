#!/usr/bin/env bash
# Statements no test and no benchmark runs.
#
#   bash scripts/cover.sh   (or: make cover)
#
# Runs go test ./... and one -benchtime 1x pass of every benchmark, both
# with -coverpkg=./..., so every test binary records every package's
# blocks. The two profiles list each block once per test binary; a block
# counts as covered if any binary ran it. Prints the uncovered statements
# per package, the module total outside cmd/ and examples/ (the figure
# results/COVER.txt records and CI ratchets on), and every function outside
# those directories that never ran. The merged profile is left in
# .cover/merged.out for go tool cover -html.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.cover"
rm -rf "$out"
mkdir -p "$out"
go test -count=1 -coverpkg=./... -coverprofile="$out/test.out" ./... >"$out/test.log" 2>&1 || { cat "$out/test.log"; exit 1; }
go test -count=1 -run '^$' -bench . -benchtime 1x -coverpkg=./... -coverprofile="$out/bench.out" ./... >"$out/bench.log" 2>&1 || { cat "$out/bench.log"; exit 1; }

# One line per block: the block's statement count and the most any binary
# counted for it.
mod="$(go list -m)"
awk 'FNR == 1 && /^mode:/ { mode = $0; next }
	{ st[$1] = $2; if (!($1 in cnt) || $3 > cnt[$1]) cnt[$1] = $3 }
	END { print mode; for (b in cnt) print b, st[b], cnt[b] }' "$out/test.out" "$out/bench.out" >"$out/merged.out"

echo "make cover: go test ./... + one -benchtime 1x pass of every benchmark, -coverpkg=./... ($(go env GOVERSION), $(nproc) CPUs)"
awk -v mod="$mod/" 'NR > 1 {
		file = $1; sub(/:.*/, "", file); pkg = file; sub(/\/[^\/]*$/, "", pkg)
		pkg = substr(pkg, length(mod) + 1); if (pkg == "") pkg = "."
		all[pkg] += $2; if ($3 == 0) un[pkg] += $2
		if (pkg !~ /^(cmd|examples)(\/|$)/) { mall += $2; if ($3 == 0) mun += $2 }
	}
	END {
		printf "%-36s %10s %11s\n", "package", "uncovered", "statements"
		for (p in all) printf "%-36s %10d %11d\n", p, un[p], all[p] | "sort"
		close("sort")
		printf "%-36s %10d %11d\n", "module (outside cmd/, examples/)", mun, mall
	}' "$out/merged.out"
# A function is never run when it has statements and none of them ran. go
# tool cover -func gives each function's first line; its statements are the
# blocks from there to the next function of the file. Marker methods with
# an empty body have none, and are left out.
echo "functions never run (outside cmd/, examples/):"
go tool cover -func="$out/merged.out" | awk -v mod="$mod/" '
	NR == FNR { if ($1 !~ /:[0-9]+:$/) next; split($1, a, ":"); f = a[1]; n[f]++; line[f, n[f]] = a[2] + 0; name[f, n[f]] = $2; next }
	FNR > 1 {
		split($1, a, ":"); f = a[1]; split(a[2], r, "."); l = r[1] + 0
		for (i = n[f]; i > 0 && line[f, i] > l; i--) {}
		if (i > 0) { st[f, i] += $2; if ($3 > 0) ran[f, i] = 1 }
	}
	END {
		for (f in n) {
			if (f ~ ("^" mod "(cmd|examples)/")) continue
			for (i = 1; i <= n[f]; i++) if (st[f, i] > 0 && !ran[f, i]) printf "  %s:%d: %s\n", substr(f, length(mod) + 1), line[f, i], name[f, i] | "sort -t: -k1,1 -k2,2n"
		}
	}' - "$out/merged.out"
