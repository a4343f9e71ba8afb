// perfbench gen — seeded workload inputs from readsim.
//
// The reference is fixed (kGenomeSeed) and the reads come from --seed, so
// every run maps new reads against the same reference. The reference is
// repeat-rich (repeat_fraction 0.25, 2 kb units at 2% divergence, as in
// bench/bench_common.hpp) so long reads collect secondary candidates the
// way the paper's `-P` all-chains workload does. Its kContigs contigs
// have staggered lengths 1:2:..:N of kGenomeLen. Reads carry their origin
// in the name (read_<i>!<contig>!<pos>!<strand>), which is the truth
// recall is scored against.

#include <string>
#include <vector>

#include "common.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/readsim/genome.hpp"
#include "genasmx/readsim/read_simulator.hpp"
#include "genasmx/refmodel/reference.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kGenomeSeed = 1;
constexpr std::size_t kGenomeLen = 3'000'000;
constexpr std::size_t kContigs = 3;

}  // namespace

int runGen(const Args& args) {
  using namespace gx;
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  const auto reads = static_cast<std::size_t>(args.num("count"));
  const auto length = static_cast<std::size_t>(args.num("length"));
  const std::string kind = args.str("kind");
  if (kind != "long" && kind != "short") {
    throw std::invalid_argument("--kind must be long or short");
  }

  refmodel::Reference ref;
  std::vector<io::FastxRecord> genome_records;
  const std::size_t weight_total = kContigs * (kContigs + 1) / 2;
  for (std::size_t c = 0; c < kContigs; ++c) {
    readsim::GenomeConfig gcfg;
    gcfg.length = kGenomeLen * (c + 1) / weight_total;
    gcfg.repeat_fraction = 0.25;
    gcfg.repeat_unit = 2'000;
    gcfg.repeat_divergence = 0.02;
    gcfg.seed = kGenomeSeed * 1000 + c;
    const std::string name = "chr" + std::to_string(c + 1);
    const std::string seq = readsim::generateGenome(gcfg);
    ref.addContig(name, seq);
    genome_records.push_back({name, "", seq, ""});
  }

  auto rcfg = kind == "long" ? readsim::ReadSimConfig::pacbioClr(reads, length)
                             : readsim::ReadSimConfig::illumina(reads, length);
  rcfg.errors.error_rate = args.num("error");
  rcfg.seed = seed * 1000 + 999;
  std::vector<io::FastxRecord> read_records;
  read_records.reserve(reads);
  for (const auto& r : readsim::simulateReads(ref, rcfg)) {
    read_records.push_back(
        {r.name, "", r.seq, std::string(r.seq.size(), 'I')});
  }
  io::writeFastxFile(args.str("fasta"), genome_records);
  io::writeFastxFile(args.str("reads"), read_records);
  return 0;
}

}  // namespace perfbench
