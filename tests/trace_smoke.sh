#!/usr/bin/env bash
# End-to-end PCW_TRACE smoke test: a bench-sized series write/read run
# with PCW_TRACE set must flush a Perfetto-loadable Chrome trace at
# process exit containing the per-block sz stage spans, the h5 I/O and
# async-queue spans, and the per-step engine spans — and the same run
# with PCW_TRACE unset must leave no trace file behind (the dormant
# contract). Validation is tools/check_trace.py; binaries come from
# CMake: $1 = bench_timeseries, $2 = check_trace.py, $3 = python3.
set -u

bench="$1"
check_trace="$2"
python="$3"
tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

fails=0

# Armed run: flush at exit, then validate schema + required span names.
trace="${tmpdir}/trace.json"
if ! PCW_TRACE="${trace}" "${bench}" --smoke >"${tmpdir}/bench.log" 2>&1; then
  echo "FAIL: bench_timeseries --smoke failed under PCW_TRACE"
  tail -5 "${tmpdir}/bench.log"
  fails=$((fails + 1))
elif [[ ! -s "${trace}" ]]; then
  echo "FAIL: PCW_TRACE=${trace} produced no trace file"
  fails=$((fails + 1))
elif ! "${python}" "${check_trace}" "${trace}" \
    --require quantize run_tokens huffman_encode compress step write_exposed \
              pwrite fsync enqueue async_write; then
  echo "FAIL: trace file did not validate"
  fails=$((fails + 1))
else
  echo "ok: armed run flushed a valid trace with the required spans"
fi

# Capped run: the :cap= grammar must parse and still produce a valid file.
capped="${tmpdir}/capped.json"
if PCW_TRACE="${capped}:cap=64" "${bench}" --smoke >/dev/null 2>&1 &&
    "${python}" "${check_trace}" "${capped}" >/dev/null; then
  echo "ok: capped run (cap=64) flushed a valid trace"
else
  echo "FAIL: PCW_TRACE with :cap=64 did not produce a valid trace"
  fails=$((fails + 1))
fi

# Dormant run: no PCW_TRACE, no file. Run in a scratch dir so any stray
# output would be visible.
dormant="${tmpdir}/dormant"
mkdir "${dormant}"
if ! (cd "${dormant}" && "${bench}" --smoke >/dev/null 2>&1); then
  echo "FAIL: bench_timeseries --smoke failed without PCW_TRACE"
  fails=$((fails + 1))
elif compgen -G "${dormant}/*.json" >/dev/null; then
  echo "FAIL: dormant run left trace/JSON files: $(ls "${dormant}")"
  fails=$((fails + 1))
else
  echo "ok: dormant run left no trace file"
fi

if [[ ${fails} -ne 0 ]]; then
  echo "${fails} trace smoke check(s) failed"
  exit 1
fi
echo "all trace smoke checks passed"
