// AVX-512 kernel instantiations: stencil-decode lane batches of up to 32
// blocks in zmm halves of 8 doubles (the stencil sweep is latency-bound
// on its serial chain, so four independent zmm chains per cell quadruple
// throughput), and the lattice kernels one zmm (8 lanes) per chunk.
// Compiled with -mavx512f/bw/dq/vl -ffp-contract=off -O3
// (src/CMakeLists.txt); -ffp-contract=off matters here because AVX-512F
// implies FMA and contraction would change bytes. See kernels_impl.h.
#define PCW_KERNEL_NS avx512
#define PCW_KERNEL_WIDTH 32
#define PCW_LATTICE_WIDTH 8
#include "sz/kernels_impl.h"
#include "sz/lattice_impl.h"
