#!/usr/bin/env bash
# Tier-1 gate, three passes plus an opt-in fourth:
#
#   pass 1  default Release configuration, full ctest — what CI runs.
#   pass 2  ASan + UBSan build (ARRAYTRACK_SANITIZE=address,undefined)
#           with the kernel layer forced to its scalar paths via
#           ARRAYTRACK_FORCE_SCALAR=1. The dispatch-override tests force
#           SSE2/AVX2 programmatically (simd::force beats the
#           environment), so the intrinsics paths still execute under
#           the sanitizers even though the ambient level is scalar.
#   pass 3  ThreadSanitizer build (ARRAYTRACK_SANITIZE=thread) running
#           only the concurrency-bearing suites — the shared thread
#           pool, the realtime simulator, the multi-worker location
#           service (plus its lock-free histogram), the elastic pool's
#           spawn/retire paths, and the cluster/auth tier — since TSan
#           slows everything ~10x and the rest of the tree is
#           single-threaded.
#   pass 4  (opt-in: CHECK_PERFBENCH=1) python3 perfbench/run.py
#           --self-check: builds the served-path benchmark in its own
#           tree (.bench_build/perfbench) and runs every workload for
#           one second at both trace settings, including the traced
#           replay's bitwise check against the served stage calls.
#
# Usage: [CHECK_PERFBENCH=1] tools/check.sh [build-dir-prefix]
#        (default prefix: build-check)
set -euo pipefail
cd "$(dirname "$0")/.."

prefix="${1:-build-check}"
jobs="$(nproc 2>/dev/null || echo 2)"

run_pass() {
  local dir="$1"; shift
  local label="$1"; shift
  local filter="$1"; shift
  echo "=== ${label} (${dir}) ==="
  cmake -B "${dir}" -S . "$@"
  cmake --build "${dir}" -j "${jobs}"
  if [[ -n "${filter}" ]]; then
    ctest --test-dir "${dir}" --output-on-failure -R "${filter}"
  else
    ctest --test-dir "${dir}" --output-on-failure
  fi
}

run_pass "${prefix}" "pass 1: default build + ctest" ""

ARRAYTRACK_FORCE_SCALAR=1 \
ASAN_OPTIONS=halt_on_error=1:detect_leaks=1 \
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  run_pass "${prefix}-asan" \
           "pass 2: ASan+UBSan build + ctest (scalar dispatch)" "" \
           -DARRAYTRACK_SANITIZE=address,undefined

TSAN_OPTIONS=halt_on_error=1 \
  run_pass "${prefix}-tsan" \
           "pass 3: TSan build + concurrency suites" \
           'ThreadPool|Realtime|Service|StreamingHistogram|MpscRing|Ingest|Batch|Subspace|Delivery|Query|Geofence|Cluster|Elastic|Auth|Quant' \
           -DARRAYTRACK_SANITIZE=thread

if [[ "${CHECK_PERFBENCH:-0}" == 1 ]]; then
  echo "=== pass 4: perfbench self-check ==="
  python3 perfbench/run.py --self-check
fi

echo "=== all checks passed ==="
