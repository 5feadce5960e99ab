// The §2.2 pattern proof and its process-wide memo: every one of the 24
// GEMM patterns has the parallelism and tilability the decomposition needs;
// each pattern is proved once per process, however many threads compile
// it; and a source compile proves once, in the frontend, whose verdict on
// every accepted source in the tree equals the pattern's proof.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "codegen/athread_printer.h"
#include "core/compiler.h"
#include "core/pipeline.h"
#include "service/kernel_service.h"
#include "support/error.h"
#include "support/trace.h"

namespace sw::core {
namespace {

/// All 24 patterns: batched, transposeA, transposeB and fusion.
std::vector<CodegenOptions> allPatterns() {
  std::vector<CodegenOptions> patterns;
  for (const FusionKind fusion :
       {FusionKind::kNone, FusionKind::kPrologueQuantize,
        FusionKind::kEpilogueRelu})
    for (const bool batched : {false, true})
      for (const bool transposeA : {false, true})
        for (const bool transposeB : {false, true}) {
          CodegenOptions options;
          options.batched = batched;
          options.transposeA = transposeA;
          options.transposeB = transposeB;
          options.fusion = fusion;
          patterns.push_back(options);
        }
  return patterns;
}

std::string label(const CodegenOptions& options) {
  return std::string(options.batched ? "batched" : "plain") +
         (options.transposeA ? " A^T" : "") +
         (options.transposeB ? " B^T" : "") + " fusion " +
         std::to_string(static_cast<int>(options.fusion));
}

/// What §2.2 proves of every GEMM pattern: of the loops ((b,) i, j, k) only
/// k carries a dependence, and the whole band is tilable.
PatternAnalysis expectedAnalysis(const CodegenOptions& options) {
  return PatternAnalysis{
      options.batched,
      options.transposeA,
      options.transposeB,
      options.fusion,
      options.batched ? std::vector<bool>{true, true, true, false}
                      : std::vector<bool>{true, true, false},
      true};
}

/// The events the global tracer records while `body` runs.
template <typename Body>
std::vector<trace::TraceEvent> traced(Body&& body) {
  trace::Tracer& tracer = trace::Tracer::global();
  tracer.clear();
  tracer.enable();
  body();
  tracer.disable();
  std::vector<trace::TraceEvent> events = tracer.snapshot();
  tracer.clear();
  return events;
}

/// The `analysis` argument of each pipeline.dependence span, in order; ""
/// for a span without one.
std::vector<std::string> dependenceOrigins(
    const std::vector<trace::TraceEvent>& events) {
  std::vector<std::string> origins;
  for (const trace::TraceEvent& event : events) {
    if (event.name != "pipeline.dependence") continue;
    std::string origin;
    for (const trace::TraceArg& arg : event.args)
      if (arg.key == "analysis") origin = arg.value;
    origins.push_back(origin);
  }
  return origins;
}

std::string readFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// First in this file, so the memo starts empty: eight threads released
// together compile the 24 patterns, each thread in its own order.  Each
// pattern is proved exactly once, and every thread's sources equal a
// serial compile against the expected analysis, which bypasses the memo.
TEST(PatternAnalysis, ConcurrentFirstCompilesProveEachPatternOnce) {
  const std::vector<CodegenOptions> patterns = allPatterns();
  ASSERT_EQ(patterns.size(), 24u);
  constexpr std::size_t kThreads = 8;
  const SwGemmCompiler compiler;
  std::vector<std::vector<CompiledKernel>> kernels(
      kThreads, std::vector<CompiledKernel>(patterns.size()));
  const std::vector<trace::TraceEvent> events = traced([&] {
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (std::size_t p = 0; p < patterns.size(); ++p) {
          const std::size_t index = (p + 3 * t) % patterns.size();
          kernels[t][index] = compiler.compile(patterns[index]);
        }
      });
    for (std::thread& thread : threads) thread.join();
  });

  const std::vector<std::string> origins = dependenceOrigins(events);
  EXPECT_EQ(origins.size(), kThreads * patterns.size());
  EXPECT_EQ(std::count(origins.begin(), origins.end(), "proved"), 24);
  EXPECT_EQ(std::count(origins.begin(), origins.end(), "reused"),
            static_cast<std::ptrdiff_t>(kThreads * patterns.size() - 24));
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const codegen::GeneratedSources serial = codegen::printAthreadSources(
        compiler.lower(patterns[p], expectedAnalysis(patterns[p])).program);
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(kernels[t][p].cpeSource, serial.cpe)
          << label(patterns[p]) << " thread " << t;
      EXPECT_EQ(kernels[t][p].mpeSource, serial.mpe)
          << label(patterns[p]) << " thread " << t;
    }
  }
}

TEST(PatternAnalysis, EveryPatternIsParallelInIAndJAndTilable) {
  for (const CodegenOptions& options : allPatterns()) {
    const PatternAnalysis& analysis = analyzeGemmPattern(options);
    EXPECT_TRUE(analysis.covers(options)) << label(options);
    EXPECT_EQ(analysis.coincident, expectedAnalysis(options).coincident)
        << label(options);
    EXPECT_TRUE(analysis.tilable) << label(options);
  }
}

/// Every raw string literal R"delim(...)delim" in `text`.
std::vector<std::string> rawStrings(const std::string& text) {
  std::vector<std::string> strings;
  for (std::size_t at = text.find("R\""); at != std::string::npos;
       at = text.find("R\"", at + 2)) {
    // R" inside an identifier or right after a quote is no raw string.
    if (at > 0 && (std::isalnum(static_cast<unsigned char>(text[at - 1])) ||
                   text[at - 1] == '_' || text[at - 1] == '"'))
      continue;
    const std::size_t open = text.find('(', at + 2);
    if (open == std::string::npos || open - at - 2 > 16) continue;
    const std::string close = ")" + text.substr(at + 2, open - at - 2) + "\"";
    const std::size_t end = text.find(close, open);
    if (end == std::string::npos) break;
    strings.push_back(text.substr(open + 1, end - open - 1));
    at = end;
  }
  return strings;
}

// A nest the frontend accepts is the canonical pattern up to renaming, so
// its verdict on the user's nest, which a source compile adopts as the
// pattern's proof, must equal the proof.  Checked on every source in the
// tree the frontend accepts: the example and benchmark inputs, and the
// raw-string sources of the tests, examples and benches.
TEST(PatternAnalysis, FrontendVerdictEqualsThePatternProof) {
  const std::filesystem::path root = SW_SOURCE_DIR;
  std::vector<std::string> files;      // inputs the frontend must accept
  std::vector<std::string> embedded;   // raw strings, GEMM or not
  for (const char* dir : {"examples", "perfbench/sources"})
    for (const auto& entry : std::filesystem::directory_iterator(root / dir))
      if (entry.path().extension() == ".c")
        files.push_back(readFile(entry.path()));
  for (const char* dir : {"tests", "examples", "bench", "perfbench/src"})
    for (const auto& entry : std::filesystem::directory_iterator(root / dir))
      if (entry.path().extension() == ".cc")
        for (std::string& text : rawStrings(readFile(entry.path())))
          embedded.push_back(std::move(text));
  ASSERT_GE(files.size(), 5u);

  std::vector<bool> patternSeen(24, false);
  int accepted = 0;
  const auto check = [&](const std::string& source, bool mustAccept) {
    ParsedGemmSource parsed;
    try {
      parsed = parseGemmSource(source);
    } catch (const InputError& e) {
      EXPECT_FALSE(mustAccept) << e.what() << "\n" << source;
      return;
    }
    ++accepted;
    const PatternAnalysis& proof = analyzeGemmPattern(parsed.options);
    EXPECT_TRUE(parsed.verdict.covers(parsed.options)) << source;
    EXPECT_EQ(parsed.verdict.coincident, proof.coincident) << source;
    EXPECT_EQ(parsed.verdict.tilable, proof.tilable) << source;
    const std::vector<CodegenOptions> patterns = allPatterns();
    for (std::size_t p = 0; p < patterns.size(); ++p)
      if (proof.covers(patterns[p])) patternSeen[p] = true;
  };
  for (const std::string& source : files) check(source, true);
  for (const std::string& source : embedded) check(source, false);

  // The sources span the tree's patterns: plain, batched, each transpose
  // and both fusions.
  EXPECT_GE(accepted, 20);
  EXPECT_GE(std::count(patternSeen.begin(), patternSeen.end(), true), 6);
}

TEST(PatternAnalysis, RepeatCompileProvesNothing) {
  const SwGemmCompiler compiler;
  CodegenOptions options;
  options.tileM = 32;
  (void)compiler.compile(options);
  const std::vector<trace::TraceEvent> events = traced([&] {
    (void)compiler.compile(options);
    (void)runGemmPipeline(options, compiler.arch());
    (void)dumpScheduleTrees(options, compiler.arch());
  });
  EXPECT_EQ(dependenceOrigins(events),
            (std::vector<std::string>{"reused", "reused", "reused"}));
}

TEST(PatternAnalysis, SourceCompileProvesOnceInTheFrontend) {
  // Through the compiler and through the service, the compile adopts the
  // frontend's verdict: its one pipeline.dependence span proves nothing,
  // and the kernel is printed once, under the user's function name.
  const std::string source =
      readFile(std::filesystem::path(SW_SOURCE_DIR) / "examples" /
               "quickstart_gemm.c");
  const SwGemmCompiler compiler;
  service::KernelService service(compiler.arch(), {});
  for (const bool viaService : {false, true}) {
    CompiledKernel kernel;
    const std::vector<trace::TraceEvent> events = traced([&] {
      kernel = viaService ? service.compileSource(source)
                          : compiler.compileSource(source);
    });
    EXPECT_EQ(dependenceOrigins(events), (std::vector<std::string>{"frontend"}))
        << (viaService ? "service" : "compiler");
    EXPECT_EQ(std::count_if(events.begin(), events.end(),
                            [](const trace::TraceEvent& e) {
                              return e.name == "codegen.print";
                            }),
              1);
    EXPECT_EQ(kernel.program.name, "gemm");
    CompiledKernel reference =
        compiler.lower(kernel.options, expectedAnalysis(kernel.options));
    reference.program.name = "gemm";
    EXPECT_EQ(kernel.cpeSource,
              codegen::printAthreadSources(reference.program).cpe);
  }
}

}  // namespace
}  // namespace sw::core
