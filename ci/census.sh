#!/bin/sh
# census.sh — reachability census (ROADMAP item 4): which library
# functions does no production entry point execute?
#
# Builds the production entry points — cmd/slbsim, cmd/slbtrace,
# cmd/slbsoak and every examples/* program — with coverage over all of
# slb/..., runs each at its quickest setting with GOCOVERDIR set, and
# prints every library function (the root facade and internal/...) whose
# coverage is 0.0%, then their count. The list is a worklist, not a
# gate: the script exits non-zero only when a build or a run fails.
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
build slbtrace cmd/slbtrace
build slbsoak cmd/slbsoak
for dir in examples/*/; do
	build "example-$(basename "$dir")" "$dir"
done

run "$work/bin/slbsim" -scale quick all
trace="$work/census.slbt"
run "$work/bin/slbtrace" gen -out "$trace" -dataset WP -scale quick
run "$work/bin/slbtrace" stats -in "$trace"
run "$work/bin/slbtrace" head -in "$trace"
run "$work/bin/slbtrace" sim -in "$trace" -algo D-C
run "$work/bin/slbsoak" -short -duration 1s
for ex in "$work"/bin/example-*; do
	run "$ex"
done

go tool covdata func -i="$work/cov" >"$work/func.txt"
grep -E '^slb/(internal/[^[:space:]]+|[^/[:space:]]+\.go):' "$work/func.txt" |
	awk '$NF == "0.0%" { print $1, $2 }' >"$work/unreached.txt" || true
cat "$work/unreached.txt"
echo "census: $(wc -l <"$work/unreached.txt" | tr -d ' ') library functions execute no statement in any production entry point"
