#!/usr/bin/env bash
# Tier-1 verification: configure, build everything, run the tier1-labelled
# CTest suites. This is the exact gate CI runs; run it locally before
# pushing.
#
# Usage:
#   tools/run_tier1.sh                 # RelWithDebInfo into build/
#   tools/run_tier1.sh --asan          # ASan+UBSan config into build-asan/
#   tools/run_tier1.sh --tsan          # ThreadSanitizer config into build-tsan/
#   tools/run_tier1.sh --filter REGEX  # only tests matching REGEX (ctest -R)
#   tools/run_tier1.sh --build-dir DIR [extra cmake args...]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir=""
default_build_dir="${repo_root}/build"
build_type=RelWithDebInfo
cmake_args=()
ctest_args=()

while [[ $# -gt 0 ]]; do
  case "$1" in
    --asan)
      default_build_dir="${repo_root}/build-asan"
      cmake_args+=(-DPCW_SANITIZE=ON)
      shift
      ;;
    --tsan)
      default_build_dir="${repo_root}/build-tsan"
      cmake_args+=(-DPCW_SANITIZE_THREAD=ON)
      shift
      ;;
    --build-dir)
      if [[ $# -lt 2 ]]; then
        echo "error: --build-dir requires a directory argument" >&2
        exit 2
      fi
      build_dir="$2"
      shift 2
      ;;
    --filter)
      if [[ $# -lt 2 ]]; then
        echo "error: --filter requires a regex argument" >&2
        exit 2
      fi
      ctest_args+=(-R "$2")
      shift 2
      ;;
    *)
      cmake_args+=("$1")
      shift
      ;;
  esac
done

# An explicit --build-dir wins over the --asan default, whatever the order.
build_dir="${build_dir:-${default_build_dir}}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE="${build_type}" "${cmake_args[@]+"${cmake_args[@]}"}"
cmake --build "${build_dir}" -j "$(nproc)"
ctest --test-dir "${build_dir}" -L tier1 --output-on-failure -j "$(nproc)" \
  "${ctest_args[@]+"${ctest_args[@]}"}"
