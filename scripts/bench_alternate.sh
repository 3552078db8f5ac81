#!/usr/bin/env bash
# The micro-benchmarks scripts/benchgate gates, run on two checkouts in
# alternation, one run at a time, so drift of a shared machine lands on
# both sides alike. Each package's test binary is built once per side
# (go test -c) and every run is a -count 1 run of one top-level benchmark
# (with its sub-benchmarks) from its package directory. The two sides of
# a benchmark run back to back, so they are seconds apart; in run i head
# goes first when i is odd and base when i is even. Usage, from the root
# of the head checkout:
#
#   ./scripts/bench_alternate.sh BASE_SRC OUT_DIR
#   go run ./scripts/benchgate -base OUT_DIR/base.txt -head OUT_DIR/head.txt
#
# With BASE_SRC empty, or a package that does not build there, that side
# is skipped and benchgate reports head's rows ungated.
set -euo pipefail

BASE_SRC="$1"
mkdir -p "$2"
OUT="$(cd "$2" && pwd)"
RUNS=5
HEAD_SRC="$(pwd)"

# package, benchmark pattern, -benchtime
SPECS=(
	"scheduler Schedule 800ms"
	"sim SimRun 3x"
	"rm JournalEncode|Replay|Checkpoint|SubmitRoute|IdleBeatFrame|ServeIdleFrame|PlacingBeat 800ms"
	"gang GangDecide 800ms"
)

mkdir -p "$OUT/head" "$OUT/base"
rm -f "$OUT"/head/*.test "$OUT"/base/*.test
: >"$OUT/head.txt"
: >"$OUT/base.txt"

build() { # build SIDE SRC: one test binary per package
	local side="$1" src="$2" spec pkg
	for spec in "${SPECS[@]}"; do
		pkg="${spec%% *}"
		(cd "$src" && go test -c -o "$OUT/$side/$pkg.test" "./internal/$pkg/") || {
			[ "$side" = base ] || exit 1
			echo "base: internal/$pkg does not build; its rows are reported ungated" >&2
		}
	done
}

run() { # run SIDE SRC PKG BENCHMARK BENCHTIME: one -count 1 run
	local side="$1" src="$2" pkg="$3"
	[ -x "$OUT/$side/$pkg.test" ] || return 0
	# A failing base run is reported ungated; a failing head run fails.
	(cd "$src/internal/$pkg" && "$OUT/$side/$pkg.test" -test.run '^$' -test.bench "^$4\$" \
		-test.benchmem -test.benchtime "$5" -test.count 1 -test.timeout 20m) >>"$OUT/$side.txt" ||
		[ "$side" = base ]
}

benchmarks() { # benchmarks PKG PATTERN: the top-level benchmarks either side has
	local side
	for side in head base; do
		[ -x "$OUT/$side/$1.test" ] || continue
		"$OUT/$side/$1.test" -test.list "$2" | grep '^Benchmark' || true
	done | awk '!seen[$0]++'
}

build head "$HEAD_SRC"
if [ -n "$BASE_SRC" ]; then
	build base "$BASE_SRC"
else
	echo "no base checkout; head benchmarks reported ungated" >"$OUT/base.txt"
fi
for i in $(seq 1 "$RUNS"); do
	for spec in "${SPECS[@]}"; do
		read -r pkg pattern benchtime <<<"$spec"
		for bench in $(benchmarks "$pkg" "$pattern"); do
			if [ $((i % 2)) -eq 1 ]; then
				run head "$HEAD_SRC" "$pkg" "$bench" "$benchtime"
				[ -z "$BASE_SRC" ] || run base "$BASE_SRC" "$pkg" "$bench" "$benchtime"
			else
				[ -z "$BASE_SRC" ] || run base "$BASE_SRC" "$pkg" "$bench" "$benchtime"
				run head "$HEAD_SRC" "$pkg" "$bench" "$benchtime"
			fi
		done
	done
done
