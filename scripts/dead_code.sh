#!/usr/bin/env bash
# Dead-code audit: fails when a function defined in libdrivefi.a is kept
# by no shipped binary and no test.
#
# Builds the project (every bench, example and test) and perfbench/ at -O0,
# so no call is hidden by inlining, with -ffunction-sections, and links
# with --gc-sections, so each binary keeps exactly the library functions it
# can reach. perfbench is built with -DNDEBUG: without it perfbench compiles
# to a stub that refuses to run, and the functions only its benchmark path
# calls would read as dead. A global function of libdrivefi.a that is in no
# linked binary is reported, demangled, and the script exits 1.
#
#   scripts/dead_code.sh [BUILD_DIR]      (default: build-deadcode)
#
# Needs GTest (the tests are part of the audit) and google-benchmark (some
# benches embed microbenchmarks); a binary that could not be built is an
# error, not a pass.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD_DIR=${1:-$ROOT/build-deadcode}

AUDIT_FLAGS=(
  -DCMAKE_BUILD_TYPE=Release
  "-DCMAKE_CXX_FLAGS_RELEASE=-O0 -DNDEBUG"
  -DCMAKE_CXX_FLAGS=-ffunction-sections
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
)

cmake -S "$ROOT" -B "$BUILD_DIR/main" "${AUDIT_FLAGS[@]}" >/dev/null
cmake --build "$BUILD_DIR/main" -j "$(nproc)" >/dev/null
cmake -S "$ROOT/perfbench" -B "$BUILD_DIR/perfbench" "${AUDIT_FLAGS[@]}" \
  >/dev/null
cmake --build "$BUILD_DIR/perfbench" -j "$(nproc)" >/dev/null

binaries=("$BUILD_DIR/perfbench/drivefi_perfbench")
for src in "$ROOT"/bench/*.cpp "$ROOT"/examples/*.cpp "$ROOT"/tests/*.cpp; do
  binaries+=("$BUILD_DIR/main/$(basename "$src" .cpp)")
done
for binary in "${binaries[@]}"; do
  if [ ! -x "$binary" ]; then
    echo "error: $binary was not built (missing GTest or google-benchmark?)" >&2
    exit 2
  fi
done

WORK=$(mktemp -d "${TMPDIR:-/tmp}/drivefi_dead_code.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# Global functions the library defines, and every function any binary kept.
nm --defined-only "$BUILD_DIR/main/libdrivefi.a" 2>/dev/null |
  awk '$2 == "T" { print $3 }' | sort -u >"$WORK/defined"
for binary in "${binaries[@]}"; do
  nm --defined-only "$binary" | awk '$2 ~ /^[TtWw]$/ { print $3 }'
done | sort -u >"$WORK/kept"

comm -23 "$WORK/defined" "$WORK/kept" >"$WORK/dead"
echo "audited ${#binaries[@]} binaries against" \
  "$(wc -l <"$WORK/defined") library functions"
if [ -s "$WORK/dead" ]; then
  echo "error: $(wc -l <"$WORK/dead") library functions are kept by no" \
    "binary and no test:" >&2
  c++filt <"$WORK/dead" | sed 's/^/  /' >&2
  exit 1
fi
echo "no dead library functions"
