#!/bin/sh
# census.sh — reachability census (ROADMAP item 3): which library
# functions does no production entry point execute?
#
# Builds the production entry points — cmd/slbsim, cmd/slbstorm,
# cmd/slbtrace, cmd/slbsoak, every examples/* program and the benchmark
# (the bench module, whose re-executed workload children inherit
# GOCOVERDIR) — with coverage over all of slb/..., runs each at its
# quickest setting with GOCOVERDIR set, and prints every library
# function (the root facade and internal/...) whose coverage is 0.0%,
# then their count per package and in total. The list is a worklist,
# not a gate: the script exits non-zero only when a build or a run
# fails. slbstorm's quick run dominates the wall clock (about 40 s on a
# 2-vCPU host; the bench about 9 s, the rest about 15 s).
#
# Usage: ci/census.sh   (from anywhere inside the repository)
set -eu

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

run "$work/bin/slbsim" -scale quick all
run "$work/bin/slbstorm" -scale quick all
trace="$work/census.slbt"
# -payload mix writes a version-2 trace, so the value path (WithValues
# on record, the replay's NextBatchValues on stats) runs too.
run "$work/bin/slbtrace" gen -out "$trace" -dataset WP -scale quick -payload mix
run "$work/bin/slbtrace" stats -in "$trace"
run "$work/bin/slbtrace" head -in "$trace"
run "$work/bin/slbtrace" sim -in "$trace" -algo D-C
run "$work/bin/slbsoak" -short -duration 1s
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
