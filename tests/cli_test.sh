#!/usr/bin/env bash
# CLI contract test for the pcwz / pcw5ls front ends: unknown flags must
# exit 2 with a usage message (they used to be silently ignored), the
# documented happy paths must keep working, and the damage-reporting
# commands (pcwz verify, pcw5ls --scrub) must honor their exit-code
# contract: 0 = clean, 1 = damaged, 2 = unreadable. Registered as a
# tier1 CTest; binaries are passed in by CMake ($3, quickstart, is
# optional and provides a real .pcw5 fixture).
set -u

pcwz="$1"
pcw5ls="$2"
quickstart="${3:-}"
tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

fails=0
check() {
  local desc="$1" want_rc="$2" want_msg="$3"
  shift 3
  local out rc
  out="$("$@" 2>&1)"
  rc=$?
  if [[ ${rc} -ne ${want_rc} ]]; then
    echo "FAIL: ${desc}: exit ${rc}, want ${want_rc}"
    echo "${out}" | head -3
    fails=$((fails + 1))
  elif [[ -n "${want_msg}" ]] && ! grep -q "${want_msg}" <<<"${out}"; then
    echo "FAIL: ${desc}: output lacks '${want_msg}'"
    echo "${out}" | head -3
    fails=$((fails + 1))
  else
    echo "ok: ${desc}"
  fi
}

# Fixture: a tiny compressible raw field (zeros are fine for CLI plumbing).
raw="${tmpdir}/in.f32"
blob="${tmpdir}/out.pcwz"
head -c 4096 /dev/zero >"${raw}"

# Happy paths stay green.
check "compress roundtrip" 0 "" \
  "${pcwz}" compress "${raw}" "${blob}" --dims 1,1,1024 --eb 1e-3
check "inspect" 0 "pcw::sz" "${pcwz}" inspect "${blob}"
# inspect names the stage that codes the sub-1-bit structure: run tokens
# in container v5 (an all-zero field is one long zero-residual run), none
# with --no-lossless, LZ on a checked-in legacy v4 blob.
check "inspect run tokens" 0 "sub-1-bit stage: run tokens" "${pcwz}" inspect "${blob}"
check "compress --no-lossless" 0 "" \
  "${pcwz}" compress "${raw}" "${tmpdir}/plain.pcwz" --dims 1,1,1024 --eb 1e-3 --no-lossless
check "inspect no sub-1-bit stage" 0 "sub-1-bit stage: none" \
  "${pcwz}" inspect "${tmpdir}/plain.pcwz"
check "inspect legacy lz" 0 "sub-1-bit stage: lz" \
  "${pcwz}" inspect "$(dirname "$0")/fixtures/legacy_lz/v4_lz.pcwz"
# inspect counts blocks per predictor: the writer's lattice blocks, the
# stencil and temporal blocks of a checked-in v5 blob from the writer
# before it.
check "inspect lattice blocks" 0 "predictors: 1 lattice, 0 stencil, 0 temporal" \
  "${pcwz}" inspect "${blob}"
check "inspect stencil and temporal blocks" 0 \
  "predictors: 0 lattice, 9 stencil, 8 temporal" \
  "${pcwz}" inspect "$(dirname "$0")/fixtures/legacy_v5_lorenzo/temporal.pcwz"
check "decompress" 0 "" "${pcwz}" decompress "${blob}" "${tmpdir}/back.f32"

# --stats: every subcommand prints the telemetry snapshot (counter rows
# plus span totals, since --stats arms buffered tracing) after its
# normal output, without disturbing the exit code.
check "compress --stats" 0 "telemetry:" \
  "${pcwz}" compress "${raw}" "${blob}" --dims 1,1,1024 --eb 1e-3 --stats
check "compress --stats counters" 0 "sz_bytes_in" \
  "${pcwz}" compress "${raw}" "${blob}" --dims 1,1,1024 --eb 1e-3 --stats
check "compress --stats spans" 0 "huffman_encode" \
  "${pcwz}" compress "${raw}" "${blob}" --dims 1,1,1024 --eb 1e-3 --stats
check "decompress --stats" 0 "sz_blocks_decoded" \
  "${pcwz}" decompress "${blob}" "${tmpdir}/back.f32" --stats
check "inspect --stats" 0 "telemetry:" "${pcwz}" inspect "${blob}" --stats

# Unknown flags: exit 2 + usage, on every subcommand (also with --stats).
check "compress unknown flag" 2 "usage:" \
  "${pcwz}" compress "${raw}" "${blob}" --dims 1,1,1024 --eb 1e-3 --bogus
check "decompress unknown flag" 2 "usage:" \
  "${pcwz}" decompress "${blob}" "${tmpdir}/back.f32" --bogus
check "inspect unknown flag" 2 "usage:" "${pcwz}" inspect "${blob}" --bogus
check "stats plus unknown flag" 2 "usage:" \
  "${pcwz}" inspect "${blob}" --stats --bogus
check "unknown command" 2 "usage:" "${pcwz}" frobnicate
check "no args" 2 "usage:" "${pcwz}"

# pcwz verify exit codes: 0 intact, 1 damaged, 2 unparseable.
check "verify intact blob" 0 "OK" "${pcwz}" verify "${blob}"
check "verify unknown flag" 2 "usage:" "${pcwz}" verify "${blob}" --bogus
blob_size="$(wc -c <"${blob}")"
head -c "$((blob_size - 1))" "${blob}" >"${tmpdir}/damaged.pcwz"
check "verify damaged blob" 1 "DAMAGED" "${pcwz}" verify "${tmpdir}/damaged.pcwz"
head -c 20 "${blob}" >"${tmpdir}/stub.pcwz"
check "verify unparseable blob" 2 "UNPARSEABLE" \
  "${pcwz}" verify "${tmpdir}/stub.pcwz"

# pcw5ls: unknown flag rejected before the file is even opened.
check "pcw5ls unknown flag" 2 "usage:" "${pcw5ls}" "${tmpdir}/nope.pcw5" --bogus
check "pcw5ls no args" 2 "usage:" "${pcw5ls}"
# Known flags on a missing file still fail cleanly (rc 1, not a crash).
check "pcw5ls missing file" 1 "error:" "${pcw5ls}" "${tmpdir}/nope.pcw5" --steps

# pcw5ls --scrub exit codes: 2 = unreadable (missing file, garbage file).
check "scrub missing file" 2 "error:" "${pcw5ls}" "${tmpdir}/nope.pcw5" --scrub
head -c 256 /dev/urandom >"${tmpdir}/garbage.pcw5"
check "scrub garbage file" 2 "error:" "${pcw5ls}" "${tmpdir}/garbage.pcw5" --scrub

# pcwz read/restart/stats + --remote: the flag grammar is pinned even
# without a running pcwd. --remote strips anywhere on the line, composes
# with --stats, and misuse stays on the exit-2 contract; an unreachable
# server is a runtime failure (1), never a crash.
check "read missing args" 2 "usage:" "${pcwz}" read
check "read unknown flag" 2 "usage:" \
  "${pcwz}" read "${tmpdir}/nope.pcw5" rho "${tmpdir}/o.raw" --bogus
check "read bad region" 2 "usage:" \
  "${pcwz}" read "${tmpdir}/nope.pcw5" rho "${tmpdir}/o.raw" --region garbage
check "restart missing args" 2 "usage:" "${pcwz}" restart
check "remote without value" 2 "needs a value" \
  "${pcwz}" read "${tmpdir}/nope.pcw5" rho "${tmpdir}/o.raw" --remote
check "remote on compress" 2 "not supported" \
  "${pcwz}" compress "${raw}" "${blob}" --dims 1,1,1024 --eb 1e-3 \
  --remote unix:/tmp/x.sock
check "remote on inspect" 2 "not supported" \
  "${pcwz}" inspect "${blob}" --remote unix:/tmp/x.sock
check "stats without remote" 2 "usage:" "${pcwz}" stats
check "stats unreachable server" 1 "error:" \
  "${pcwz}" stats --remote "unix:${tmpdir}/no-such-daemon.sock"
check "read unreachable server" 1 "error:" \
  "${pcwz}" read nope.pcw5 rho "${tmpdir}/o.raw" \
  --remote "unix:${tmpdir}/no-such-daemon.sock"

# pcw5ls --remote: same contract.
check "pcw5ls remote without value" 2 "needs a value" "${pcw5ls}" --remote
check "pcw5ls remote rejects flags" 2 "not supported with --remote" \
  "${pcw5ls}" --remote unix:/tmp/x.sock nope.pcw5 --steps
check "pcw5ls unreachable server" 1 "error:" \
  "${pcw5ls}" --remote "unix:${tmpdir}/no-such-daemon.sock"

# With a real checkpoint (written by the quickstart example): a clean file
# scrubs to 0, a torn one (footer cut off) is unreadable -> 2.
if [[ -n "${quickstart}" ]]; then
  ckpt="${tmpdir}/quickstart.pcw5"
  if "${quickstart}" "${ckpt}" >/dev/null 2>&1; then
    check "scrub clean checkpoint" 0 "scrub" "${pcw5ls}" "${ckpt}" --scrub
    # Local read happy path: whole dataset and a sparse region, with the
    # raw output sized accordingly.
    check "read whole dataset" 0 "" \
      "${pcwz}" read "${ckpt}" baryon_density "${tmpdir}/whole.raw"
    check "read sparse region" 0 "" \
      "${pcwz}" read "${ckpt}" baryon_density "${tmpdir}/part.raw" \
      --region 0,0,0:2,4,8
    part_size="$(wc -c <"${tmpdir}/part.raw")"
    if [[ "${part_size}" -ne $((2 * 4 * 8 * 4)) ]]; then
      echo "FAIL: sparse read wrote ${part_size} bytes, want 256"
      fails=$((fails + 1))
    else
      echo "ok: sparse read byte count"
    fi
    check "read unknown dataset" 1 "error:" \
      "${pcwz}" read "${ckpt}" no_such_dataset "${tmpdir}/o.raw"
    check "read --stats" 0 "telemetry:" \
      "${pcwz}" read "${ckpt}" baryon_density "${tmpdir}/whole.raw" --stats
    check "pcw5ls --blocks sub-1-bit column" 0 "sub-1-bit" \
      "${pcw5ls}" "${ckpt}" --blocks
    check "pcw5ls --blocks predictor column" 0 "lattice " \
      "${pcw5ls}" "${ckpt}" --blocks
    check "pcw5ls --stats" 0 "telemetry:" "${pcw5ls}" "${ckpt}" --stats
    check "pcw5ls --stats io counters" 0 "io_reads" "${pcw5ls}" "${ckpt}" --stats
    check "pcw5ls --stats unknown flag" 2 "usage:" \
      "${pcw5ls}" "${ckpt}" --stats --bogus
    ckpt_size="$(wc -c <"${ckpt}")"
    head -c "$((ckpt_size / 2))" "${ckpt}" >"${tmpdir}/torn.pcw5"
    check "scrub torn checkpoint" 2 "error:" "${pcw5ls}" "${tmpdir}/torn.pcw5" --scrub
  else
    echo "FAIL: quickstart fixture did not produce a checkpoint"
    fails=$((fails + 1))
  fi
fi

if [[ ${fails} -ne 0 ]]; then
  echo "${fails} CLI contract check(s) failed"
  exit 1
fi
echo "all CLI contract checks passed"
