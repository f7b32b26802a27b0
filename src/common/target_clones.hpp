/// \file target_clones.hpp
/// Per-CPU function multiversioning for the hot numeric kernels (the GEMM
/// blocks in ml/kernels, the radiation phase sum): put
/// `ARTSCI_TARGET_CLONES` before a definition and GCC emits one clone per
/// listed target, picked once per process by an ifunc resolver. The clones
/// are avx512f, x86-64-v3 (AVX2 + FMA + BMI2, as one target: GCC would
/// split an "avx2,fma" entry into two separate clones) and default; a CPU
/// with AVX2 and FMA but no AVX-512 runs the x86-64-v3 clone. Keep OpenMP
/// parallel regions *outside* cloned functions and call the clone per work
/// item. A kernel that must give the same bits in every clone is compiled
/// with -ffp-contract=off (the FMA-capable clones would otherwise fuse
/// multiply-adds).
///
/// GCC-on-Linux only; other toolchains and sanitized builds use the single
/// portable version. Ifunc resolvers run at IRELATIVE-relocation time,
/// before .preinit_array, so a sanitizer-instrumented resolver (GCC
/// instruments them) faults in __tsan_func_entry before the runtime
/// exists. Hence no clones under ASan *or* TSan.
#pragma once

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__linux__) && !defined(__SANITIZE_ADDRESS__) &&            \
    !defined(__SANITIZE_THREAD__)
#define ARTSCI_TARGET_CLONES \
  __attribute__((target_clones("avx512f", "arch=x86-64-v3", "default")))
#else
#define ARTSCI_TARGET_CLONES
#endif
