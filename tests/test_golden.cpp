// Golden PAF fixtures: the mapper's output contract, recorded by
// tools/regen_golden.sh under tests/data/golden/. Every fixture is mapped
// through MappingPipeline in each flow — from an in-memory Reference and
// from a written-then-mmapped index, at 1 and 8 threads, at every
// supported SIMD level — and must reproduce the committed bytes exactly.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "genasmx/io/fastx.hpp"
#include "genasmx/io/paf.hpp"
#include "genasmx/mapper/index.hpp"
#include "genasmx/mapper/index_io.hpp"
#include "genasmx/pipeline/pipeline.hpp"
#include "genasmx/refmodel/reference.hpp"
#include "genasmx/simd/dispatch.hpp"

#ifndef GENASMX_GOLDEN_DIR
#error "GENASMX_GOLDEN_DIR must name tests/data/golden"
#endif

namespace gx {
namespace {

const std::string kDir = GENASMX_GOLDEN_DIR;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct Flow {
  const char* name;  ///< fixture suffix
  bool primary_only;
  bool sketch;
};
constexpr Flow kFlows[] = {
    {"all", false, false},      // default: primary + secondaries
    {"primary", true, false},   // --primary-only
    {"sketch", true, true},     // --primary-only --prefilter sketch
};
constexpr const char* kReadSets[] = {"long", "short"};

/// The configuration genasmx_map builds from its defaults plus the
/// flow's flags (the command lines in tools/regen_golden.sh).
pipeline::PipelineConfig cliConfig(const Flow& flow, std::size_t threads) {
  pipeline::PipelineConfig cfg;
  cfg.engine.threads = threads;
  cfg.engine.aligner.window.window = 64;
  cfg.engine.aligner.window.overlap = 24;
  cfg.engine.aligner.ksw.band = 751;
  cfg.emit_secondary = !flow.primary_only;
  cfg.prefilter.mode = flow.sketch ? pipeline::PrefilterMode::kSketch
                                   : pipeline::PrefilterMode::kOff;
  return cfg;
}

std::string mapReads(pipeline::MappingPipeline& pipe,
                     const std::string& reads_path) {
  std::ifstream in(reads_path);
  EXPECT_TRUE(in) << "missing fixture " << reads_path;
  std::ostringstream out;
  io::PafWriter writer(out);
  (void)pipe.run(in, writer, reads_path);
  writer.close();
  return out.str();
}

class GoldenPaf : public testing::TestWithParam<const char*> {};

TEST_P(GoldenPaf, EveryFlowSourceThreadCountAndIsaMatchesTheFixture) {
  const std::string ref_name = GetParam();
  const auto ref = refmodel::referenceFromFastx(
      io::readFastxFile(kDir + "/" + ref_name + ".fa"));
  const std::string index_path =
      testing::TempDir() + "/golden_" + ref_name + ".gxi";
  {
    mapper::MinimizerIndex index;
    const mapper::MapperConfig mc;
    index.build(ref, mc.k, mc.w, mc.max_occ);
    mapper::writeIndexFile(index_path, index, ref);
  }
  const mapper::MappedIndex mapped(index_path);

  const auto active = simd::activeIsa();
  for (const auto level :
       {simd::IsaLevel::Scalar, simd::IsaLevel::Sse2, simd::IsaLevel::Avx2,
        simd::IsaLevel::Avx512}) {
    if (!simd::isaSupported(level)) continue;
    simd::forceIsa(level);
    for (const Flow& flow : kFlows) {
      for (const std::size_t threads : {1, 8}) {
        const auto cfg = cliConfig(flow, threads);
        pipeline::MappingPipeline from_memory(ref, cfg);
        pipeline::MappingPipeline from_disk(mapped.view(), cfg);
        for (const char* reads : kReadSets) {
          const std::string base = kDir + "/" + ref_name + "." + reads;
          const std::string expected = slurp(base + "." + flow.name + ".paf");
          ASSERT_FALSE(expected.empty()) << base;
          const std::string where = base + "." + flow.name + " @ " +
                                    std::string(simd::isaName(level)) + ", " +
                                    std::to_string(threads) + " threads";
          EXPECT_EQ(mapReads(from_memory, base + ".fq"), expected)
              << where << ", in-memory reference";
          EXPECT_EQ(mapReads(from_disk, base + ".fq"), expected)
              << where << ", mmapped index";
        }
        EXPECT_TRUE(from_memory.report().clean());
        EXPECT_TRUE(from_disk.report().clean());
      }
    }
  }
  simd::forceIsa(active);
}

INSTANTIATE_TEST_SUITE_P(Fixtures, GoldenPaf,
                         testing::Values("one", "two"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace gx
