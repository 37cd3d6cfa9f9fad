#!/bin/sh
# census.sh — reachability census (ROADMAP item 6): which library
# functions does no production entry point execute?
#
# Builds the production entry points — cmd/slbsim, cmd/slbstorm,
# cmd/slbtrace, cmd/slbsoak, every examples/* program and the benchmark
# (the bench module, whose re-executed workload children inherit
# GOCOVERDIR) — with coverage over all of slb/..., runs each at its
# quickest setting with GOCOVERDIR set and the output flags CI's own
# steps pass, and prints every library function (the root facade and
# internal/...) whose coverage is 0.0%, then their count per package
# and in total.
#
# It is a gate: every unreached function must be listed in
# ci/census_allow.txt, one per line as "<package> <Receiver.Func>
# <reason>" (the import path, then the name as `go tool covdata func`
# prints it without the pointer star; no line numbers), and the script
# exits 1 naming each unreached function the list lacks. A listed
# function that an entry point now reaches is printed as "stale" and
# does not fail the run; delete its line. A failed build or run also
# exits non-zero. slbstorm's quick run dominates the wall clock (about
# 40 s on a 2-vCPU host; the bench about 9 s, the rest about 25 s).
#
# Usage: ci/census.sh   (from anywhere inside the repository)
set -eu
export LC_ALL=C

cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/bin" "$work/cov"

build() { go build -cover -coverpkg=slb/... -o "$work/bin/$1" "./$2"; }
run() { GOCOVERDIR="$work/cov" "$@" >/dev/null; }

build slbsim cmd/slbsim
build slbstorm cmd/slbstorm
build slbtrace cmd/slbtrace
build slbsoak cmd/slbsoak
for dir in examples/*/; do
	build "example-$(basename "$dir")" "$dir"
done
go build -C bench -cover -coverpkg=slb/... -o "$work/bin/bench" .

# The CLIs run with every output CI asks of them: charts, CSV and JSON.
mkdir "$work/out"
run "$work/bin/slbsim" -scale quick -chart -csv "$work/out" -json "$work/out" all
run "$work/bin/slbstorm" -scale quick -chart -csv "$work/out" -json "$work/out" all
trace="$work/census.slbt"
# -payload mix writes a version-2 trace, so the value path (WithValues
# on record, the replay's NextBatchValues on stats) runs too.
run "$work/bin/slbtrace" gen -out "$trace" -dataset WP -scale quick -payload mix
run "$work/bin/slbtrace" stats -in "$trace"
run "$work/bin/slbtrace" head -in "$trace"
run "$work/bin/slbtrace" sim -in "$trace" -algo D-C
# The soak runs twice, as CI's two soak steps do: gated against the
# committed baseline with every artifact written, then under -faults.
run "$work/bin/slbsoak" -short -duration 1s \
	-baseline ci/BENCH_soak_baseline.json \
	-summary "$work/out/BENCH_soak_0.json" \
	-snapshot "$work/out/telemetry_snapshot.json" \
	-jsonl "$work/out/soak_rows.jsonl"
run "$work/bin/slbsoak" -short -faults -duration 1s -baseline ci
for ex in "$work"/bin/example-*; do
	run "$ex"
done
# From inside $work, so the bench's out/ lands in the temp dir.
(cd "$work" && run "$work/bin/bench" -quick -seconds 1)

go tool covdata func -i="$work/cov" >"$work/func.txt"
grep -E '^slb/(internal/[^[:space:]]+|[^/[:space:]]+\.go):' "$work/func.txt" |
	awk '$NF == "0.0%" { print $1, $2 }' >"$work/unreached.txt" || true
cat "$work/unreached.txt"
# Package of each entry: the path up to its file name ("slb" for the
# root facade).
sed -E 's|/[^/]+\.go:.*||' "$work/unreached.txt" | sort | uniq -c |
	awk '{ printf "census: %4d %s\n", $1, $2 }'
echo "census: $(wc -l <"$work/unreached.txt" | tr -d ' ') library functions execute no statement in any production entry point"

# The gate: key each entry as "<package> <Receiver.Func>" and compare
# with the allow-list's first two fields.
sed -E 's|^([^ ]+)/[^/]+\.go:[0-9]+: \*?|\1 |' "$work/unreached.txt" | sort -u >"$work/keys.txt"
awk '!/^#/ && NF { print $1, $2 }' ci/census_allow.txt | sort -u >"$work/allow.txt"
comm -13 "$work/keys.txt" "$work/allow.txt" | sed 's/^/census: stale (allow-listed, now reached): /'
comm -23 "$work/keys.txt" "$work/allow.txt" >"$work/unlisted.txt"
if [ -s "$work/unlisted.txt" ]; then
	sed 's/^/census: UNLISTED: /' "$work/unlisted.txt"
	echo "census: $(wc -l <"$work/unlisted.txt" | tr -d ' ') unreached functions are not in ci/census_allow.txt: delete them, reach them, or list them with a reason"
	exit 1
fi
