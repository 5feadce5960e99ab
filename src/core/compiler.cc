#include "core/compiler.h"

#include <cstdio>

#include "codegen/athread_printer.h"
#include "runtime/plan.h"
#include "support/logging.h"
#include "support/trace.h"

namespace sw::core {

std::string canonicalRequestKey(const CodegenOptions& options,
                                const sunway::ArchConfig& arch) {
  // Space-terminated tokens: integers in decimal, doubles with %.17g
  // (round-trip exact), booleans as 0/1.
  std::string key = "swkey ";
  const auto num = [&key](std::int64_t v) {
    key += std::to_string(v);
    key += ' ';
  };
  const auto real = [&key](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g ", v);
    key += buf;
  };
  num(kRequestKeyVersion);
  num(options.useAsm);
  num(options.useRma);
  num(options.hideLatency);
  num(options.batched);
  num(static_cast<std::int64_t>(options.fusion));
  num(options.transposeA);
  num(options.transposeB);
  num(options.tileM);
  num(options.tileN);
  num(options.tileK);
  num(options.stripFactor);
  num(options.microMr);
  num(options.microNr);
  num(options.edgeTiles);
  num(arch.meshRows);
  num(arch.meshCols);
  num(arch.spmBytes);
  real(arch.cpeFrequencyHz);
  real(arch.cpeFlopsPerCycle);
  real(arch.asmKernelEfficiency);
  real(arch.naiveFlopsPerCycle);
  real(arch.elementwiseFlopsPerCycle);
  real(arch.ddrBandwidthBytesPerSec);
  real(arch.dmaStartupSeconds);
  real(arch.dmaStridePenaltySecondsPerRow);
  real(arch.rmaBandwidthBytesPerSec);
  real(arch.rmaStartupSeconds);
  real(arch.syncSeconds);
  real(arch.spawnOverheadSeconds);
  real(arch.mpeFlopsPerCycle);
  real(arch.mpeFrequencyHz);
  real(arch.mpeMemBandwidthBytesPerSec);
  num(arch.coreGroups);
  real(arch.nodeDdrBandwidthBytesPerSec);
  real(arch.nocBandwidthBytesPerSec);
  real(arch.nocLatencySeconds);
  return key;
}

CompiledKernel SwGemmCompiler::lower(const CodegenOptions& options,
                                     const PatternAnalysis& pattern) const {
  CompiledKernel kernel;
  kernel.options = options;
  kernel.program = runGemmPipeline(options, arch_, pattern).program;
  trace::Span lowerSpan("lower.plan");
  kernel.plan = rt::lowerToPlan(kernel.program);
  lowerSpan.addArg(trace::arg(
      "instructions", static_cast<std::int64_t>(kernel.plan->code.size())));
  return kernel;
}

CompiledKernel SwGemmCompiler::compile(const CodegenOptions& options) const {
  return compileAs(options, nullptr, "");
}

CompiledKernel SwGemmCompiler::compileAs(const CodegenOptions& options,
                                         const PatternAnalysis* verdict,
                                         const std::string& name) const {
  trace::Span span("compile",
                   {trace::arg("tileM", options.tileM),
                    trace::arg("tileN", options.tileN),
                    trace::arg("tileK", options.tileK),
                    trace::arg("useAsm", options.useAsm ? "true" : "false"),
                    trace::arg("useRma", options.useRma ? "true" : "false"),
                    trace::arg("hideLatency",
                               options.hideLatency ? "true" : "false")});
  CompiledKernel kernel =
      lower(options, verdict != nullptr ? adoptFrontendVerdict(*verdict)
                                        : analyzeGemmPattern(options));
  if (!name.empty()) kernel.program.name = name;
  trace::Span printSpan("codegen.print");
  codegen::GeneratedSources sources =
      codegen::printAthreadSources(kernel.program);
  kernel.cpeSource = std::move(sources.cpe);
  kernel.mpeSource = std::move(sources.mpe);
  printSpan.addArg(trace::arg(
      "cpeBytes", static_cast<std::int64_t>(kernel.cpeSource.size())));
  SW_DEBUG("compiler", "event=compile_done kernel=", kernel.program.name,
           " spm_bytes=", kernel.program.spmBytesUsed());
  return kernel;
}

}  // namespace sw::core
