#include "core/compiler.h"
#include "frontend/pattern.h"
#include "support/trace.h"

namespace sw::core {

ParsedGemmSource parseGemmSource(const std::string& source,
                                 CodegenOptions base) {
  trace::Span span("frontend.parse",
                   {trace::arg("sourceBytes",
                               static_cast<std::int64_t>(source.size()))});
  const frontend::GemmPatternInfo pattern = frontend::analyzeGemmSource(source);
  span.addArg(trace::arg("function", pattern.functionName));
  span.addArg(trace::arg("batched", pattern.batched ? "true" : "false"));
  base.batched = pattern.batched;
  base.transposeA = pattern.transposeA;
  base.transposeB = pattern.transposeB;
  switch (pattern.fusion) {
    case frontend::FusionPattern::kNone:
      base.fusion = FusionKind::kNone;
      break;
    case frontend::FusionPattern::kPrologueQuantize:
      base.fusion = FusionKind::kPrologueQuantize;
      break;
    case frontend::FusionPattern::kEpilogueRelu:
      base.fusion = FusionKind::kEpilogueRelu;
      break;
  }
  return ParsedGemmSource{
      base, pattern.functionName,
      PatternAnalysis{base.batched, base.transposeA, base.transposeB,
                      base.fusion, pattern.coincident, pattern.tilable}};
}

CompiledKernel SwGemmCompiler::compileSource(const std::string& source,
                                             CodegenOptions base) const {
  return compileParsed(parseGemmSource(source, base));
}

CompiledKernel SwGemmCompiler::compileParsed(
    const ParsedGemmSource& parsed) const {
  // The generated kernel is named after the user's function.
  return compileAs(parsed.options, &parsed.verdict, parsed.functionName);
}

}  // namespace sw::core
