#!/usr/bin/env bash
# Bounds-check-elimination guard for the fused-sweep and M-PML strip kernels.
#
# The fused and PML strip inner loops are written against explicit per-offset subslice
# windows (ap := a[n0+off:][:ni]) precisely so the compiler's prove pass can
# eliminate every per-point bounds check; a regression here silently costs
# kernel throughput. This script rebuilds the kernel packages with
# -d=ssa/check_bce and fails if any per-point IsInBounds check appears in a
# fused kernel file. IsSliceInBounds diagnostics are allowed: they are the
# once-per-row window creations, not per-point checks.
#
# A fresh GOCACHE is mandatory: the build cache suppresses compiler
# diagnostics for already-compiled packages, which would make the guard
# vacuously pass.
set -euo pipefail
cd "$(dirname "$0")/.."

# Files whose inner loops must stay free of per-point bounds checks.
GUARDED='internal/core/fd/fused.go internal/core/attenuation/fused.go internal/core/attenuation/attenuation.go internal/core/fd/ttile.go internal/core/fd/lerp.go internal/core/boundary/pmlstrip.go internal/core/boundary/sponge.go'

tmpcache=$(mktemp -d)
trap 'rm -rf "$tmpcache"' EXIT

diag=$(GOCACHE="$tmpcache" go build \
    -gcflags="repro/internal/core/fd=-d=ssa/check_bce" \
    -gcflags="repro/internal/core/attenuation=-d=ssa/check_bce" \
    -gcflags="repro/internal/core/boundary=-d=ssa/check_bce" \
    ./internal/core/fd ./internal/core/attenuation ./internal/core/boundary 2>&1 || true)

status=0
for f in $GUARDED; do
    base=$(basename "$f")
    hits=$(printf '%s\n' "$diag" | grep "Found IsInBounds" | grep -c "$base" || true)
    if [ "$hits" -ne 0 ]; then
        echo "FAIL: $hits per-point bounds check(s) in $f:"
        printf '%s\n' "$diag" | grep "Found IsInBounds" | grep "$base"
        status=1
    else
        echo "ok: $f has no per-point bounds checks"
    fi
done

# Sanity: the diagnostics must actually be present (an empty diag means the
# flags were dropped or the cache swallowed the output).
if ! printf '%s\n' "$diag" | grep -q "Found Is"; then
    echo "FAIL: no check_bce diagnostics produced — guard is not measuring anything"
    status=1
fi

exit $status
