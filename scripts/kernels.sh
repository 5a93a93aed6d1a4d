#!/bin/sh
# kernels.sh holds the two compiler-output lanes that guard the row kernels
# of internal/stencil and internal/derived (and the row reducers they call
# in internal/mathx). Both need only the local GOROOT.
#
#   kernels.sh bce   bounds-check ratchet
#   kernels.sh fma   no fused multiply-add on arm64
set -eu
cd "$(dirname "$0")/.."

PKGS='./internal/stencil ./internal/derived'

# Index bounds checks (IsInBounds) the compiler could not prove away in the
# two kernel files. The single-pass loops index pre-sliced, equal-length tap
# rows, so their loads carry none; what is counted here is the per-point
# path (Block.At through Deriv and Norm, the derived.Inputs accessors over
# blocks and slabs), the strided DerivRow, the catalog's closures, two
# checks per point in each curl loop, and the standalone (never called,
# always inlined) bodies of the tap helpers. Slicing checks
# (IsSliceInBounds) run once per row and are not counted. The number may
# only go down: lower it when it does.
BCE_MAX=55

case "${1:-}" in
bce)
	# shellcheck disable=SC2086
	n=$(go build -gcflags=-d=ssa/check_bce $PKGS 2>&1 |
		grep -c -E '^internal/(stencil/stencil|derived/derived)\.go:[0-9:]+ Found IsInBounds' || true)
	echo "IsInBounds in stencil.go + derived.go: $n (max $BCE_MAX)"
	if [ "$n" -gt "$BCE_MAX" ]; then
		echo 'FAIL: the kernels gained bounds checks; list them with' >&2
		echo "  go build -gcflags=-d=ssa/check_bce $PKGS" >&2
		exit 1
	fi
	if [ "$n" -lt "$BCE_MAX" ]; then
		echo "note: below the ratchet; lower BCE_MAX in scripts/kernels.sh to $n"
	fi
	;;
fma)
	# The Go spec lets arm64 fuse x*y + z into one instruction with one
	# rounding; the kernels forbid it with explicit float64 conversions so
	# that Eval and EvalRow, and an arm64 node and an amd64 node, round
	# alike. Cross-compile and look for what must not be there.
	# shellcheck disable=SC2086
	fused=$(GOARCH=arm64 go build -gcflags=-S $PKGS ./internal/mathx 2>&1 |
		grep -E 'F(N?M)(ADD|SUB)[SD]' || true)
	if [ -n "$fused" ]; then
		echo 'FAIL: fused multiply-add in the arm64 build of the kernels:' >&2
		echo "$fused" | sed 's/^[[:space:]]*/  /' | head -20 >&2
		echo 'wrap the product in float64(...) (CONTRIBUTING, "Derived fields and row kernels")' >&2
		exit 1
	fi
	echo 'arm64 build of stencil + derived + mathx: no fused multiply-add'
	;;
*)
	echo "usage: $0 bce|fma" >&2
	exit 2
	;;
esac
