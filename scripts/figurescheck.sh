#!/bin/sh
# figurescheck.sh — the paper-fidelity gate: regenerate every committed
# figure/table file with shmtbench and require a byte-identical result.
#
# The deterministic engine makes everything in results_all.txt and
# results_fig9_abl.txt a pure function of the code — except the resident-
# cache ablation's "wall ms" column, which is measured host time; that one
# column is masked on both sides before the diff. Several minutes on a small host,
# so it is a CI job of its own and not part of `make check`.
set -eu

GO="${GO:-go}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# mask blanks the second column of the table whose header starts
# "resident  wall ms", up to the blank line that ends it.
mask() {
	awk '/^resident +wall ms/ { m = 1 } /^$/ { m = 0 } m && $1 ~ /^(off|on)$/ { $2 = "-" } { print }' "$1"
}

check() { # $1 = -exp list, $2 = committed file
	echo "figures-check: shmtbench -exp $1 vs $2"
	"$GO" run ./cmd/shmtbench -exp "$1" >"$tmp/raw" 2>"$tmp/stderr" || {
		cat "$tmp/stderr" >&2
		exit 1
	}
	mask "$2" >"$tmp/want"
	mask "$tmp/raw" >"$tmp/got"
	diff -u "$tmp/want" "$tmp/got" || {
		echo "figures-check: $2 no longer regenerates byte-identically" >&2
		exit 1
	}
}

check all results_all.txt
check fig9,ablation,stability results_fig9_abl.txt
echo "figures-check: ok"
