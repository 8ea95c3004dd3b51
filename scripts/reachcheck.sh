#!/bin/sh
# reachcheck.sh — every non-test function is linked into some binary.
#
# Builds each main package of the module (cmd/*) and the benchmark harness
# (benchmarks/e2e) with inlining off, so every function a binary calls keeps
# its own symbol, and lists the symbols with `go tool nm`.
# Each non-test `func` declaration that none of the binaries links is printed
# with its file:line and the script exits 1. Code only tests reach belongs in
# a _test.go file of its package.
#
# Generic functions and methods of generic types match with their type
# arguments stripped (tensor.NewFreeList[...] is tensor.NewFreeList), and
# init functions are never reported. The root package's exported API is
# exempt: a library caller, not a binary, is its user. So are the exported
# methods of each type the root package aliases (type Matrix = tensor.Matrix
# exempts tensor.(*Matrix).Set): a library caller reaches them through
# shmt.Matrix. Every other exemption is listed in ALLOW below with the test
# that needs it. An ALLOW row fails the check once a binary links its symbol
# or no declaration has it any more.
#
# Reflect rule: a binary that looks methods up through reflect
# (reflect.Value.Method, reflect.Value.MethodByName, reflect.(*rtype).Method,
# reflect.(*rtype).MethodByName; html/template and text/template do) makes
# the linker keep every exported method of every type stored in an
# interface, and this check could not tell those methods from called ones.
# A binary linking any of the four fails the check, naming the symbol.
#
# Usage: sh scripts/reachcheck.sh   (from the repository root)
set -eu

GO="${GO:-go}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# ALLOW: symbol, then the reason it is linked into no binary.
ALLOW='
shmt/internal/parallel.SetWorkers              core TestPropertyPooledComputeMatchesOneWorker and telemetry TestGanttGolden pin the pool width
shmt/internal/telemetry.Disable                core TestEngineTelemetrySpansAndCounters, the cluster chaos tests and the root telemetry tests turn recording back off
shmt/internal/quant.AffineParams.QuantizeOne   per-element INT8 oracle of kernels FuzzInt8Round and tpu TestRequantOutputMatchesGroupedReference
shmt/internal/quant.AffineParams.DequantizeOne per-element INT8 oracle of kernels FuzzInt8Round and tpu TestRequantOutputMatchesGroupedReference'

: >"$tmp/linked"
: >"$tmp/reflect"
n=0
nm_main() { # $1 = main package import path, $2 = binary
	# A main package's own symbols are named main.X; name them by its path.
	# An assembly function's symbol carries its ABI: drop the .abi0.
	"$GO" tool nm "$2" | sed -n "s|^ *[0-9a-f]* [Tt] ||p" |
		sed -e "s|^main\.|$1.|" -e 's|\.abi0$||' >"$tmp/syms"
	grep -E '^reflect\.(Value|\(\*rtype\))\.(Method|MethodByName)$' "$tmp/syms" |
		sed "s|^|  $1 links |" >>"$tmp/reflect" || :
	cat "$tmp/syms" >>"$tmp/linked"
}
for pkg in $("$GO" list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	n=$((n + 1))
	"$GO" build -gcflags=all=-l -o "$tmp/bin$n" "$pkg"
	nm_main "$pkg" "$tmp/bin$n"
done
(cd benchmarks && "$GO" build -gcflags=all=-l -o "$tmp/e2e" ./e2e)
nm_main shmt/benchmarks/e2e "$tmp/e2e"

# Strip type arguments, innermost brackets first ([go.shape.[]float64]).
LC_ALL=C
export LC_ALL
sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' "$tmp/linked" | sort -u >"$tmp/linked.sorted"

# Declarations: "symbol file:line", one per non-test func of the module.
"$GO" list -f '{{$p := .ImportPath}}{{$d := .Dir}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./... |
	while read -r pkg file; do
		rel="${file#"$PWD"/}"
		grep -n '^func ' "$file" | sed -n \
			-e 's/^\([0-9]*\):func (\([A-Za-z_0-9]* \)\{0,1\}\*\([A-Za-z_0-9]*\)[^)]*) \([A-Za-z_0-9]*\).*/\1 (*\3).\4/p' \
			-e 's/^\([0-9]*\):func (\([A-Za-z_0-9]* \)\{0,1\}\([A-Za-z_0-9]*\)[^)]*) \([A-Za-z_0-9]*\).*/\1 \3.\4/p' \
			-e 's/^\([0-9]*\):func \([A-Za-z_0-9]*\).*/\1 \2/p' |
			while read -r line name; do
				case "$name" in init) continue ;; esac
				echo "$pkg.$name $rel:$line"
			done
	done | sort >"$tmp/decls"

# The exemptions: the root API (shmt.Name, shmt.Type.Name, shmt.(*Type).Name
# with Name exported), the exported methods of the types it aliases, and
# ALLOW.
echo "$ALLOW" | sed -n 's/^\([^ ][^ ]*\) .*/\1/p' >"$tmp/allow"
grep -Fx -f "$tmp/allow" "$tmp/linked.sorted" | sed 's/^/  linked: /' >"$tmp/stale"
sed 's/ .*//' "$tmp/decls" | grep -Fxv -f - "$tmp/allow" | sed 's/^/  not declared: /' >>"$tmp/stale"
grep -E '^shmt\.(\(\*[A-Z][A-Za-z_0-9]*\)\.|[A-Z][A-Za-z_0-9]*\.)?[A-Z][A-Za-z_0-9]* ' "$tmp/decls" |
	sed 's/ .*//' >>"$tmp/allow"
"$GO" list -f '{{range .GoFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}' . | while read -r file; do
	sed -n 's/^type [A-Z][A-Za-z_0-9]* = \([a-z][a-z_0-9]*\)\.\([A-Z][A-Za-z_0-9]*\)$/\1 \2/p' "$file" |
		while read -r qual typ; do
			path="$(sed -n "s|^[[:space:]]*\"\(shmt/[^\"]*/$qual\)\"\$|\1|p" "$file")"
			grep -E "^$path\.(\(\*$typ\)|$typ)\.[A-Z][A-Za-z_0-9]* " "$tmp/decls" | sed 's/ .*//'
		done
done >>"$tmp/allow"
cat "$tmp/allow" "$tmp/linked.sorted" | sort -u >"$tmp/reached"

fail=0
if [ -s "$tmp/reflect" ]; then
	echo "reachcheck: binaries link reflect method lookup, which keeps every exported method:" >&2
	cat "$tmp/reflect" >&2
	fail=1
fi
if [ -s "$tmp/stale" ]; then
	echo "reachcheck: stale ALLOW rows:" >&2
	cat "$tmp/stale" >&2
	fail=1
fi
join -v 1 "$tmp/decls" "$tmp/reached" >"$tmp/unlinked"
if [ -s "$tmp/unlinked" ]; then
	echo "reachcheck: non-test functions no binary links:" >&2
	sed 's/^/  /' "$tmp/unlinked" >&2
	echo "reachcheck: $(wc -l <"$tmp/unlinked") function(s); move each into a _test.go file of its package or delete it" >&2
	fail=1
fi
[ "$fail" = 0 ] || exit 1
echo "reachcheck: ok ($(wc -l <"$tmp/decls") functions, $((n + 1)) binaries)"
