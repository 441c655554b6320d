// Baseline lattice kernel instantiation: the scalar dispatch level
// (PCW_SIMD=off, hosts without AVX2, non-x86 builds). The same source as
// the AVX2 and AVX-512 levels, compiled with the portable baseline flags
// plus -ffp-contract=off (src/CMakeLists.txt); two lanes per chunk, the
// width of the baseline x86-64 vector register.
#define PCW_KERNEL_NS base
#define PCW_LATTICE_WIDTH 2
#include "sz/lattice_impl.h"
