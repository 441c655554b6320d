// pcw toolkit — the compression kernel internals (Lorenzo stencil,
// canonical Huffman with run tokens, bitstreams, CRC32C, block splitting,
// the sz container, the zfp stand-in, the shared thread pool) for
// stage-level benchmarking.
//
// In-tree convenience surface for bench_kernels and kernel-level tools;
// applications compress through pcw/codec.h instead. Not part of the
// installed API (see docs/public_api.md).
#pragma once

#include "sz/blocks.h"         // IWYU pragma: export
#include "sz/compressor.h"     // IWYU pragma: export
#include "sz/dims.h"           // IWYU pragma: export
#include "sz/huffman.h"        // IWYU pragma: export
#include "sz/kernels.h"        // IWYU pragma: export
#include "sz/lorenzo.h"        // IWYU pragma: export
#include "util/bitstream.h"    // IWYU pragma: export
#include "util/crc32c.h"       // IWYU pragma: export
#include "util/cpu.h"          // IWYU pragma: export
#include "util/thread_pool.h"  // IWYU pragma: export
#include "zfp/zfp.h"           // IWYU pragma: export
