#!/usr/bin/env bash
# Full pre-merge gate:
#   1. tier-1 contract: configure + build + ctest (all tests and
#      registered bench smokes);
#   2. every bench_e* binary in --smoke mode, distinguishing a failed
#      self-check criterion (exit 1) from a usage error (exit 2);
#   3. trace_lint over the flight-recorder bundles the E25 smoke dumped:
#      the standalone validator proves the exported chrome traces load
#      in Perfetto (structure + span forest + root reachability);
#   4. a ThreadSanitizer build (EVEREST_SANITIZE=thread) of the
#      concurrency-heavy test binaries (serve, obs, data, cluster,
#      storage, stream, jit, runtime — the last two cover the JIT's
#      KnowledgeBase hot-swap against concurrent selection) run under
#      ctest;
#   5. an AddressSanitizer + UBSan build (EVEREST_SANITIZE=address, which
#      adds float-cast-overflow and makes every UBSan report abort its
#      test) of the I/O-error-path-heavy test binaries (storage, data):
#      fault injection exercises every short-write/EIO/ENOSPC cleanup
#      path, and ASan proves none of them leaks or double-frees; plus
#      serve and cluster, whose servers start and join their own worker
#      threads and own each batch's lifetime across them; plus common and
#      ir_roundtrip, whose JSON and IR parsers must reject malformed,
#      over-nested and out-of-range input without a crash; plus compiler
#      and interpreter, whose constant folding and reference semantics
#      evaluate arbitrary scalar operands and indices (`mod` by a
#      fractional divisor, INT64_MIN % -1, an index of 1e300); plus
#      stream, jit, obs and runtime, which parse bytes back in (WAL
#      replay, the jit cache load, the chrome-trace validator, the
#      KnowledgeBase JSON load).
# Every build compiles with -Werror (set through CMAKE_CXX_FLAGS, so the
# project itself gains no option). Any failure aborts the script with a
# non-zero exit.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"

echo "=== [1/5] tier-1: configure + build + ctest ==="
cmake -B "$ROOT/build" -S "$ROOT" -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build "$ROOT/build" -j "$JOBS"
(cd "$ROOT/build" && ctest --output-on-failure -j "$JOBS")

echo
echo "=== [2/5] bench smokes (exit 1 = criterion failed, 2 = bad usage) ==="
smoke_failures=0
for bench in "$ROOT"/build/bench/bench_e*; do
  [ -x "$bench" ] || continue
  name="$(basename "$bench")"
  set +e
  # Run from build/ so relative artifacts (E25's e25_flight/ dumps) land
  # in a predictable place for the later gates.
  (cd "$ROOT/build" && "$bench" --smoke >/dev/null 2>&1)
  code=$?
  set -e
  case "$code" in
    0) echo "  PASS $name" ;;
    1) echo "  FAIL $name (self-check criterion failed)"; smoke_failures=$((smoke_failures + 1)) ;;
    2) echo "  FAIL $name (rejected --smoke as bad usage)"; smoke_failures=$((smoke_failures + 1)) ;;
    *) echo "  FAIL $name (exit $code)"; smoke_failures=$((smoke_failures + 1)) ;;
  esac
done
if [ "$smoke_failures" -ne 0 ]; then
  echo "bench smoke: $smoke_failures failure(s)"
  exit 1
fi

echo
echo "=== [3/5] trace lint: flight-recorder bundles load in Perfetto ==="
if ls "$ROOT"/build/e25_flight/*.trace.json >/dev/null 2>&1; then
  "$ROOT"/build/tools/trace_lint "$ROOT"/build/e25_flight/*.trace.json
else
  echo "no flight bundles found (expected from the E25 smoke)" >&2
  exit 1
fi

echo
echo "=== [4/5] TSan: serve + obs + data + cluster + storage + stream + jit + runtime tests ==="
cmake -B "$ROOT/build-tsan" -S "$ROOT" -DEVEREST_SANITIZE=thread \
  -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build "$ROOT/build-tsan" -j "$JOBS" \
  --target test_serve test_obs test_data test_cluster test_storage test_stream \
  test_jit test_runtime
(cd "$ROOT/build-tsan" && ctest --output-on-failure -j "$JOBS" \
  -R 'test_serve|test_obs|test_data|test_cluster|test_storage|test_stream|test_jit|test_runtime')

echo
echo "=== [5/5] ASan+UBSan: storage + data + serve + cluster + common + compiler + interpreter + ir_roundtrip + stream + jit + obs + runtime tests ==="
cmake -B "$ROOT/build-asan" -S "$ROOT" -DEVEREST_SANITIZE=address \
  -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build "$ROOT/build-asan" -j "$JOBS" \
  --target test_storage test_data test_serve test_cluster test_common \
  test_compiler test_interpreter test_ir_roundtrip test_stream test_jit \
  test_obs test_runtime
(cd "$ROOT/build-asan" && ctest --output-on-failure -j "$JOBS" \
  -R 'test_storage|test_data|test_serve|test_cluster|test_common|test_compiler|test_interpreter|test_ir_roundtrip|test_stream|test_jit|test_obs|test_runtime')

echo
echo "check.sh: all gates passed."
