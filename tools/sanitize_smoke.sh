#!/bin/sh
# Sanitizer smoke: configure, build, and run the `sanitize-smoke` ctest
# subset (status/json/trace-io/cir plus the whole serving + cluster +
# chaos suite — WAL, replication, and failover included, loopback
# transports throughout) under each requested sanitizer.  asan and ubsan
# additionally sweep the `chaos-replication` label: seeded crash kills
# landing off flushed epoch boundaries with golden bit-parity checks.
#
#   tools/sanitize_smoke.sh [asan|ubsan|tsan ...]
#
# With no arguments all three are run.  Each sanitizer uses its own build
# tree (build-<name>), matching the CMakePresets.json presets of the same
# names, so `cmake --preset ubsan && cmake --build --preset ubsan &&
# ctest --preset ubsan` is the long-hand equivalent.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
sanitizers=${*:-"asan ubsan tsan"}

flags_for() {
  case "$1" in
    asan) echo "address" ;;
    ubsan) echo "undefined" ;;
    tsan) echo "thread" ;;
    *) echo "unknown sanitizer '$1' (expected asan, ubsan, or tsan)" >&2
       exit 2 ;;
  esac
}

# Warnings fail every sanitizer build.
for san in $sanitizers; do
  sanitize=$(flags_for "$san")
  build="$repo/build-$san"
  echo "== $san: configuring $build (NOMLOC_SANITIZE=$sanitize)"
  cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DNOMLOC_SANITIZE="$sanitize" -DNOMLOC_BUILD_BENCH=OFF \
        -DNOMLOC_BUILD_EXAMPLES=OFF -DNOMLOC_WERROR=ON \
        >/dev/null
  echo "== $san: building"
  cmake --build "$build" -j "$(nproc)" >/dev/null
  echo "== $san: ctest -L sanitize-smoke"
  ctest --test-dir "$build" -L sanitize-smoke --output-on-failure
  case "$san" in
    asan|ubsan)
      echo "== $san: ctest -L chaos-replication"
      ctest --test-dir "$build" -L chaos-replication --output-on-failure ;;
  esac
done
echo "== sanitize smoke passed: $sanitizers"
