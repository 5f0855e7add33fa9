#!/usr/bin/env sh
# Run clang-tidy over the xatpg tree with the project .clang-tidy config.
# The project's own xatpg-* checks run separately: `ctest -R lint`.
#
# Usage: tools/lint/run_clang_tidy.sh [build-dir] [file...]
#
#   build-dir   directory holding compile_commands.json (default: build)
#   file...     sources to lint (default: all src/ + tools/xatpg_cli.cpp)
#
# Exits 0 when clang-tidy is clean, 1 on diagnostics, 2 when the toolchain
# is unusable (no clang-tidy, no compile database) — CI treats 2 as a loud
# skip, not a pass.
set -u

BUILD_DIR=${1:-build}
[ $# -gt 0 ] && shift

if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "run_clang_tidy: SKIP — clang-tidy not installed" >&2
    exit 2
fi
if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    echo "run_clang_tidy: SKIP — $BUILD_DIR/compile_commands.json missing" \
         "(configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON)" >&2
    exit 2
fi

if [ $# -eq 0 ]; then
    set -- $(find src tools/xatpg_cli.cpp -name '*.cpp' 2>/dev/null)
fi

clang-tidy -p "$BUILD_DIR" --quiet "$@"
status=$?
[ $status -eq 0 ] && echo "run_clang_tidy: clean ($# file(s))"
exit $status
