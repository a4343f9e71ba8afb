// perfbench check — output checks on a PAF the tools produced.
//
// For every read's primary record (the first record of the read):
//   - the cg:Z: CIGAR passes common::verifyAlignment against the
//     reference span and the oriented read span the record names;
//   - its cost equals NM (alignment_len - matches);
//   - its cost is >= the myers::myersDistance optimum on those spans.
// A primary without a cg:Z: tag (chain-only: no candidate aligned) is
// counted in chain_only_primaries, which run.py adds to `failed`.
// Recall is scored from the simulator truth in read names; nm_per_kb is
// edits per kb of primary query span, a chain-only span counting as all
// edits; cost_excess = sum NM / sum optimum - 1 over aligned primaries.
// Also: every record has matches <= alignment_len.

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "genasmx/common/cigar.hpp"
#include "genasmx/common/sequence.hpp"
#include "genasmx/common/verify.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/mapper/index_io.hpp"
#include "genasmx/myers/myers.hpp"

namespace perfbench {
namespace {

std::vector<std::string_view> splitTabs(std::string_view line) {
  std::vector<std::string_view> f;
  std::size_t start = 0;
  for (;;) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string_view::npos) {
      f.push_back(line.substr(start));
      return f;
    }
    f.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

}  // namespace

int runCheck(const Args& args) {
  using namespace gx;
  const mapper::MappedIndex index(args.str("index"));
  const refmodel::Reference& ref = index.reference();
  std::map<std::string, std::uint32_t, std::less<>> contig_ids;
  for (std::uint32_t c = 0; c < ref.contigCount(); ++c) {
    contig_ids[ref.name(c)] = c;
  }
  std::map<std::string, std::string, std::less<>> reads;
  for (auto& r : io::readFastxFile(args.str("reads"))) {
    reads[r.name] = std::move(r.seq);
  }
  const std::string paf = readFile(args.str("paf"));

  struct Item {
    std::string_view name, cg;
    std::string_view target;
    const std::string* read = nullptr;
    std::size_t qb = 0, qe = 0, nm = 0;
    bool reverse = false;
  };
  std::uint64_t records = 0, primaries = 0, recalled = 0;
  std::uint64_t chain_only = 0, chain_only_qspan = 0;
  std::vector<std::string> failures;
  std::vector<Item> items;
  std::string_view last_read;
  std::size_t start = 0;
  while (start < paf.size()) {
    std::size_t nl = paf.find('\n', start);
    if (nl == std::string::npos) nl = paf.size();
    const std::string_view line(paf.data() + start, nl - start);
    start = nl + 1;
    ++records;
    const auto f = splitTabs(line);
    if (f.size() < 12) {
      failures.push_back("short PAF line: " + std::string(line.substr(0, 80)));
      continue;
    }
    const std::string_view name = f[0];
    const std::size_t matches = std::stoull(std::string(f[9]));
    const std::size_t aln_len = std::stoull(std::string(f[10]));
    if (matches > aln_len) failures.push_back(std::string(name) + ": matches > alignment_len");
    if (name == last_read) continue;  // secondary record
    last_read = name;
    ++primaries;
    const auto read_it = reads.find(name);
    const auto contig_it = contig_ids.find(f[5]);
    if (read_it == reads.end() || contig_it == contig_ids.end()) {
      failures.push_back(std::string(name) + ": unknown read or contig");
      continue;
    }
    const std::size_t qlen = std::stoull(std::string(f[1]));
    const std::size_t qb = std::stoull(std::string(f[2]));
    const std::size_t qe = std::stoull(std::string(f[3]));
    const std::size_t tb = std::stoull(std::string(f[7]));
    const std::size_t te = std::stoull(std::string(f[8]));
    const std::string_view contig = ref.contigView(contig_it->second);
    const Truth truth = parseTruth(name);
    if (truth.ok && truth.contig == f[5] && tb < truth.pos + qlen &&
        truth.pos < te) {
      ++recalled;
    }
    std::string_view cg;
    for (std::size_t i = 12; i < f.size(); ++i) {
      if (f[i].rfind("cg:Z:", 0) == 0) cg = f[i].substr(5);
    }
    if (qe > qlen || qb > qe || te > contig.size() || tb > te ||
        read_it->second.size() != qlen) {
      failures.push_back(std::string(name) + ": record span out of range");
      continue;
    }
    if (cg.empty()) {
      // Chain-only primary: mapped, but no candidate aligned. Its query
      // span is charged as all edits so giving up on a read cannot lower
      // nm_per_kb.
      ++chain_only;
      chain_only_qspan += qe - qb;
      continue;
    }
    items.push_back({name, cg, contig.substr(tb, te - tb), &read_it->second, qb, qe,
                     aln_len - matches, f[4] == "-"});
  }

  // The myers oracle dominates the cost: split it over two threads.
  struct Partial {
    std::uint64_t sum_nm = 0, sum_opt = 0, sum_qspan = 0;
    std::vector<std::string> failures;
  };
  Partial parts[2];
  const auto verifyOne = [&](const Item& it, Partial& p) {
    const std::string& read = *it.read;
    const std::string oriented = it.reverse ? common::reverseComplement(read) : read;
    const std::size_t ob = it.reverse ? read.size() - it.qe : it.qb;
    const std::string_view query = std::string_view(oriented).substr(ob, it.qe - it.qb);
    const common::VerifyResult v =
        common::verifyAlignment(it.target, query, common::Cigar::parse(it.cg));
    if (!v.valid) {
      p.failures.push_back(std::string(it.name) + ": invalid CIGAR: " + v.error);
      return;
    }
    if (v.cost != it.nm) p.failures.push_back(std::string(it.name) + ": CIGAR cost != NM");
    // A valid alignment of cost NM exists, so a band of NM always holds
    // the optimum: one banded pass instead of the doubling schedule.
    myers::MyersConfig mcfg;
    mcfg.initial_k = std::max<int>(64, static_cast<int>(it.nm));
    const int opt = myers::myersDistance(it.target, query, mcfg);
    if (opt < 0 || v.cost < static_cast<std::uint64_t>(opt)) {
      p.failures.push_back(std::string(it.name) + ": cost below the myers optimum");
    }
    p.sum_nm += it.nm;
    p.sum_opt += static_cast<std::uint64_t>(std::max(opt, 0));
    p.sum_qspan += it.qe - it.qb;
  };
  const auto verify = [&](std::size_t from, Partial& p) {
    for (std::size_t k = from; k < items.size(); k += 2) {
      try {
        verifyOne(items[k], p);
      } catch (const std::exception& e) {  // e.g. an unparsable cg:Z: tag
        p.failures.push_back(std::string(items[k].name) + ": " + e.what());
      }
    }
  };
  {
    std::thread helper(verify, 1, std::ref(parts[1]));
    verify(0, parts[0]);
    helper.join();
  }
  const std::uint64_t sum_nm = parts[0].sum_nm + parts[1].sum_nm;
  const std::uint64_t sum_opt = parts[0].sum_opt + parts[1].sum_opt;
  const std::uint64_t sum_qspan =
      parts[0].sum_qspan + parts[1].sum_qspan + chain_only_qspan;
  for (const Partial& p : parts) {
    failures.insert(failures.end(), p.failures.begin(), p.failures.end());
  }

  Json out;
  out.num("reads", static_cast<double>(reads.size()))
      .num("records", static_cast<double>(records))
      .num("primaries", static_cast<double>(primaries))
      .num("primaries_with_cigar", static_cast<double>(items.size()))
      .num("recall", reads.empty() ? 0.0
                                   : static_cast<double>(recalled) /
                                         static_cast<double>(reads.size()))
      .num("chain_only_primaries", static_cast<double>(chain_only))
      .num("nm_per_kb", sum_qspan == 0 ? 0.0
                                       : 1000.0 *
                                             static_cast<double>(sum_nm + chain_only_qspan) /
                                             static_cast<double>(sum_qspan))
      .num("cost_excess", sum_opt == 0 ? 0.0
                                       : static_cast<double>(sum_nm) /
                                                 static_cast<double>(sum_opt) -
                                             1.0)
      .num("sum_nm", static_cast<double>(sum_nm))
      .num("sum_opt", static_cast<double>(sum_opt))
      .num("failures", static_cast<double>(failures.size()))
      .str("first_failure", failures.empty() ? "" : failures.front());
  if (!writeText(args.str("out"), out.text() + "\n")) {
    throw std::runtime_error("cannot write " + args.str("out"));
  }
  return failures.empty() ? 0 : 1;
}

}  // namespace perfbench
