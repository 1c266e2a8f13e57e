#!/usr/bin/env bash
# Full robustness gate: the tier-1 build + test sweep, a compile check of the
# benchmark harness, a lint stage, then the concurrency and
# fault/determinism suites under the sanitizer presets.
#
#   scripts/check.sh            # tier-1 + perfbench build + lint + kernels
#                               # + asan + tsan sweeps
#   scripts/check.sh --tier1    # tier-1 only (what CI must always pass)
#   scripts/check.sh --lint     # lint stage only (tidy + grep invariants)
#
# The lint stage runs clang-tidy (warnings-as-errors, profile in .clang-tidy)
# over src/ when the binary is on PATH — containers without it get a warning
# and the grep-based invariants still run, so the stage never silently skips
# the cheap checks. The kernels stage re-runs the blocked-vs-reference parity
# suites plus the DAG-verifier suite under the relassert preset (-O2 with
# assertions and -Wshadow -Wconversion on runtime/ and analysis/), a
# different optimization level than tier 1 — explicit-vector kernels are the
# code most likely to diverge when the compiler changes its mind. The asan
# preset races the fault/recovery and verifier paths for lifetime bugs; the
# tsan preset hunts data races in the work-stealing runtime and additionally
# runs its sweep with EXACLIM_VERIFY=dynamic, so the shadow checker's own
# atomics are raced under instrumentation while it cross-checks the executed
# schedules. The sanitizers also run the determinism suite so
# bit-reproducibility is checked under instrumented schedules, where thread
# interleavings differ most from release builds.
set -euo pipefail
cd "$(dirname "$0")/.."

run() { echo "+ $*" >&2; "$@"; }

# --- lint: clang-tidy (when present) + grep invariants ------------------------
# The grep invariants encode rules the compiler can't see:
#   * no naked new[] in task-body code (runtime/linalg/analysis) — tile
#     buffers go through the arena / unique_ptr helpers so retry re-entry
#     can't leak;
#   * std::memory_order_relaxed only in the audited lock-free modules listed
#     below — everywhere else the default seq_cst stays until a relaxation
#     has been argued through and the file added here;
#   * no direct fopen outside common/io.cpp — all file I/O funnels through
#     the checksummed, quarantine-aware io layer.
lint() {
  local fail=0

  if command -v clang-tidy >/dev/null 2>&1; then
    run cmake -B build -S . -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    local sources
    mapfile -t sources < <(find src -name '*.cpp' | sort)
    run clang-tidy -p build --quiet "${sources[@]}" || fail=1
  else
    echo "warning: clang-tidy not on PATH; skipping tidy checks" >&2
  fi

  local hits
  hits="$(grep -rnE '\bnew\b[^;()]*\[' src/runtime src/linalg src/analysis \
          || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: naked new[] in task-body code (use arena/unique_ptr):" >&2
    echo "$hits" >&2
    fail=1
  fi

  local relaxed_ok=(
    src/common/work_steal_deque.hpp   # Chase-Lev deque (ABA-audited)
    src/common/arena.hpp
    src/common/memory.hpp             # arena stats counters
    src/common/parallel.hpp           # chunk-claim ticket counters
    src/common/thread_pool.cpp        # sleep/wake flags behind a mutex
    src/runtime/scheduler.cpp         # progress counters; edges use acq_rel
    src/runtime/tiled_cholesky_rt.hpp # per-tile precision escalation flags
    src/runtime/tiled_cholesky_rt.cpp
    src/linalg/kernels.cpp            # autotuner sample counters
  )
  hits="$(grep -rl 'memory_order_relaxed' src \
          | grep -vxF -e "$(printf '%s\n' "${relaxed_ok[@]}")" || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: memory_order_relaxed outside the audited allowlist:" >&2
    echo "$hits" >&2
    fail=1
  fi

  hits="$(grep -rn '\bfopen\b' src examples | grep -v 'src/common/io\.cpp' \
          || true)"
  if [[ -n "$hits" ]]; then
    echo "lint: direct fopen outside common/io.cpp:" >&2
    echo "$hits" >&2
    fail=1
  fi

  if [[ "$fail" -ne 0 ]]; then
    echo "lint stage failed" >&2
    exit 1
  fi
  echo "lint stage passed"
}

if [[ "${1:-}" == "--lint" ]]; then
  lint
  exit 0
fi

# --- tier 1: release build, full test suite ----------------------------------
run cmake -B build -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
run cmake --build build -j
run ctest --test-dir build --output-on-failure -j "$(nproc)"

if [[ "${1:-}" == "--tier1" ]]; then
  echo "tier-1 sweep passed"
  exit 0
fi

# --- perfbench compile check --------------------------------------------------
# Tier 1 does not build the benchmark harness, so a library API change could
# break it unseen. Compile only; running it is perfbench/run.py's job.
run cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
run cmake --build build-perfbench --target perfbench -j

lint

# --- kernel parity + DAG verifier at a second optimization level --------------
run cmake --preset relassert
run cmake --build --preset relassert -j
run ctest --test-dir build-relassert --output-on-failure -L 'kernels|analysis'

# --- sanitizer sweeps over the guarded subsystems ----------------------------
for preset in asan tsan; do
  run cmake --preset "$preset"
  run cmake --build --preset "$preset" -j
  if [[ "$preset" == "tsan" ]]; then
    # Force the dynamic shadow checker on for every scheduler run in the
    # sweep: TSan races the checker's own atomics while the checker
    # cross-checks the executed schedule against the declared effects.
    # The serve suite rides along — the sampling service must be TSan-clean
    # under concurrent clients.
    run env EXACLIM_VERIFY=dynamic \
        ctest --test-dir "build-$preset" --output-on-failure \
        -L 'fault|determinism|runtime|kernels|analysis|serve'
  else
    run ctest --test-dir "build-$preset" --output-on-failure \
        -L 'fault|determinism|runtime|kernels|analysis|serve'
  fi
done

# --- serve smoke with the dynamic shadow checker ------------------------------
# One end-to-end serving pass (release build) with EXACLIM_VERIFY=dynamic:
# every sampling DAG the service executes is cross-checked against its
# declared tile effects while real batches flow.
run env EXACLIM_VERIFY=dynamic ./build/serve_test \
    --gtest_filter='ServeTest.CountersAccountForEveryRequestUnderConcurrentClients'

echo "all sweeps passed"
