// Exo-style C source generator for the MR x NR micro-kernel family.
//
// emitMicroKernelC prints a self-contained, -Wall -Werror-clean C99
// function for one family member: C[m x n] += A[m x k] * B[k x n],
// contiguous row-major tiles, each C element accumulated over k ascending
// and added to memory exactly once.  The block shape is baked in as enum
// constants so the C compiler fully unrolls the register tile, and the
// contract tiles pack B into a contiguous panel.  The generated text is
// what the athread printer embeds in CPE sources for non-default variants.
//
// Bit-identity with the host micro-kernel (dgemmMicroKernel) holds by
// construction: neither the traversal order of independent register
// blocks nor packing changes any C element's accumulation sequence.
#pragma once

#include <string>

namespace sw::kernel {

/// C source of one family member.  `name` is the emitted function name
/// (e.g. "dgemm_mk_4x8"); `asStatic` marks it `static` for single-TU use.
/// The signature is
///   void name(double *restrict c, const double *restrict a,
///             const double *restrict b, long m, long n, long k);
std::string emitMicroKernelC(int mr, int nr, const std::string& name,
                             bool asStatic);

/// Canonical emitted-function name for a variant: "dgemm_mk_<mr>x<nr>".
std::string microKernelFunctionName(int mr, int nr);

}  // namespace sw::kernel
