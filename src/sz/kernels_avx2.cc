// AVX2 kernel instantiations: stencil-decode lane batches of up to 16
// blocks in ymm halves of 4 doubles, the lattice kernels one ymm (4
// lanes) per chunk, the symbol pass with ymm compares, and the Huffman
// pack loop with BMI2 shifts. Compiled with -mavx2 -mbmi -mbmi2
// -ffp-contract=off -O3 (src/CMakeLists.txt); see kernels_impl.h
// for why plain C++ under per-file flags is the whole trick.
#define PCW_KERNEL_NS avx2
#define PCW_KERNEL_WIDTH 16
#define PCW_LATTICE_WIDTH 4
#include "sz/kernels_impl.h"
#include "sz/lattice_impl.h"
#include "sz/pack_impl.h"
#include "sz/symbols_impl.h"
