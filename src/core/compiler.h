// Public entry point of the swcodegen library.
//
// SwGemmCompiler turns the DGEMM pattern (either a canonical spec given by
// CodegenOptions, or a naive C source accepted by the frontend) into a
// CompiledKernel: the executable per-CPE program, its lowered plan and the
// generated athread C sources.  lower() builds the program and plan alone,
// against a pattern analysis (the tuner ranks every candidate schedule
// this way); compile() is that lowering, against the process's one proof
// of the pattern, plus the printer.  A source compile proves once, in the
// frontend, and prints once, under the user's function name.
// Schedule-tree dumps are on request (core::dumpScheduleTrees).
// canonicalRequestKey names a compile request; the kernel service caches
// compiled kernels under it and the tuning database embeds it.
#pragma once

#include <memory>
#include <string>

#include "codegen/program.h"
#include "core/options.h"
#include "core/pipeline.h"
#include "sunway/arch.h"

namespace sw::rt {
struct ExecutionPlan;
}

namespace sw::core {

struct CompiledKernel {
  CodegenOptions options;
  codegen::KernelProgram program;
  /// Generated athread C sources (§7): the CPE (slave) file and the MPE
  /// (host) file, as the paper's tool emits them.  Empty on a kernel from
  /// SwGemmCompiler::lower.
  std::string cpeSource;
  std::string mpeSource;
  /// Lowered hot-path execution plan (runtime/plan.h), produced once here
  /// and shared by every run of this kernel.
  std::shared_ptr<const rt::ExecutionPlan> plan;
};

/// Version of the canonicalRequestKey rendering.  Tuning-database keys
/// embed the request key, so bumping it orphans every stored record.
inline constexpr int kRequestKeyVersion = 3;

/// Canonical, byte-stable rendering of everything a compile's output
/// depends on: every CodegenOptions field plus every ArchConfig field,
/// prefixed with kRequestKeyVersion.  Two requests with equal keys produce
/// identical kernels (tests/compile_determinism_test.cc); the kernel
/// service caches by this key.
[[nodiscard]] std::string canonicalRequestKey(const CodegenOptions& options,
                                              const sunway::ArchConfig& arch);

/// A naive C GEMM source after the frontend (§2.3): the options its
/// pattern selects, the user's function name, and the frontend's
/// dependence verdict on the user's nest.
struct ParsedGemmSource {
  CodegenOptions options;
  std::string functionName;
  PatternAnalysis verdict;
};

/// Parse, analyse and classify `source` (plain / batched / fused, operand
/// layouts) in one `frontend.parse` span.  The pattern fields of `base`
/// (batched, transposes, fusion) come from the source; its other fields,
/// explicit toggles such as useAsm/useRma/hideLatency, are kept.  Throws
/// InputError when the source is not an accepted GEMM form.
[[nodiscard]] ParsedGemmSource parseGemmSource(const std::string& source,
                                               CodegenOptions base = {});

class SwGemmCompiler {
 public:
  explicit SwGemmCompiler(sunway::ArchConfig arch = {})
      : arch_(std::move(arch)) {}

  [[nodiscard]] const sunway::ArchConfig& arch() const { return arch_; }

  /// Compile the canonical DGEMM pattern with the given options.
  [[nodiscard]] CompiledKernel compile(const CodegenOptions& options) const;

  /// Compile a naive C GEMM source (§2.3): compileParsed of
  /// parseGemmSource(source, base).
  [[nodiscard]] CompiledKernel compileSource(const std::string& source,
                                             CodegenOptions base = {}) const;

  /// Compile a parsed source.  Its verdict stands for the pattern's proof
  /// (adoptFrontendVerdict), and the program is named after the user's
  /// function before the one print.
  [[nodiscard]] CompiledKernel compileParsed(
      const ParsedGemmSource& parsed) const;

  /// The program and plan of `options` for a pattern `pattern` proved
  /// (pattern.covers(options)), with no sources printed: what a search
  /// needs of each candidate.  compile() is this plus the printer.
  [[nodiscard]] CompiledKernel lower(const CodegenOptions& options,
                                     const PatternAnalysis& pattern) const;

 private:
  /// compile(), taking the pattern's proof from the frontend's `verdict`
  /// when it is not null and naming the program `name` before printing
  /// when it is not empty.
  [[nodiscard]] CompiledKernel compileAs(const CodegenOptions& options,
                                         const PatternAnalysis* verdict,
                                         const std::string& name) const;

  sunway::ArchConfig arch_;
};

}  // namespace sw::core
