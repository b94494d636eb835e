#!/bin/sh
# tools/check.sh — the one-command correctness gate.
#
# Builds and runs the full matrix, stopping at the first failure:
#
#   1. -Werror build (audits ON)      -> tier-1 ctest + full determinism
#                                        hash gate (test_check) + the
#                                        ParallelRunner framework suite
#   2. ASan + UBSan build             -> ctest -L tier1-asan
#   3. TSan build                     -> ctest -L tier1-tsan (tier-1 plus
#                                        the framework suites, which reach
#                                        both parallel_for call sites:
#                                        run_grid and run_flow_sets)
#   4. static analysis                -> quicsteps-analyze over src/ AND
#                                        its own sources (self-hosting):
#                                        layering / units / determinism /
#                                        scheduling / lifetime / protocol
#   5. clang-tidy (when installed)    -> `tidy` target, .clang-tidy profile
#
# Build trees live in build-check/, build-asan/, build-tsan/ next to the
# usual build/ so the gate never dirties a developer tree; re-runs are
# incremental. Override parallelism with JOBS=<n>.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
JOBS=${JOBS:-$(nproc)}
SUPP="$ROOT/tools/sanitizers"

# halt_on_error everywhere: the first corruption stops the run. UBSan also
# halts via -fno-sanitize-recover baked into the build flags.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:suppressions=$SUPP/asan.supp"
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:suppressions=$SUPP/ubsan.supp"
TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:suppressions=$SUPP/tsan.supp"
export ASAN_OPTIONS UBSAN_OPTIONS TSAN_OPTIONS

step() {
    printf '\n=== check.sh: %s ===\n' "$*"
}

configure_and_build() {
    dir=$1
    shift
    cmake -B "$ROOT/$dir" -S "$ROOT" -DQUICSTEPS_WERROR=ON "$@"
    cmake --build "$ROOT/$dir" -j "$JOBS"
}

step "1/5 -Werror build + tier-1 + determinism/framework gates"
configure_and_build build-check -DQUICSTEPS_AUDIT=ON
ctest --test-dir "$ROOT/build-check" -L tier1 --output-on-failure --no-tests=error -j "$JOBS"
# tier1 already includes test_check's serial==parallel hash gate over the
# full stack x seed grid; the framework label adds the worker-pool and
# end-to-end suites.
ctest --test-dir "$ROOT/build-check" -L framework --output-on-failure --no-tests=error -j "$JOBS"

step "2/5 ASan + UBSan tier-1"
configure_and_build build-asan "-DQUICSTEPS_SANITIZE=address;undefined"
ctest --test-dir "$ROOT/build-asan" -L tier1-asan --output-on-failure --no-tests=error -j "$JOBS"

step "3/5 TSan tier-1 + ParallelRunner framework tests"
configure_and_build build-tsan "-DQUICSTEPS_SANITIZE=thread"
ctest --test-dir "$ROOT/build-tsan" -L tier1-tsan --output-on-failure --no-tests=error -j "$JOBS"

step "4/5 static analysis (quicsteps-analyze)"
cmake --build "$ROOT/build-check" --target analyze

step "5/5 clang-tidy (no-op when not installed)"
cmake --build "$ROOT/build-check" --target tidy

step "all gates passed"
