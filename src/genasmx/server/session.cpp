#include "genasmx/server/session.hpp"

#include <sstream>
#include <utility>

#include "genasmx/io/paf.hpp"

namespace gx::server {

MapSession::MapSession(mapper::IndexView index,
                       engine::AlignmentEngine& shared_engine,
                       pipeline::PipelineConfig cfg)
    : on_bad_record_(cfg.on_bad_record),
      pipeline_(index, shared_engine, std::move(cfg)) {}

void MapSession::mapGroup(const std::vector<std::string_view>& payloads,
                          const pipeline::Cancellation& cancel,
                          std::vector<RequestResult>& results) {
  results.clear();
  results.resize(payloads.size());

  // Parse every payload independently first — per-request isolation
  // demands that one unparseable request cannot keep its groupmates from
  // mapping. Reads from all parseable requests concatenate into one
  // batch; read_count[r] recovers request r's slice of the output.
  std::vector<io::FastxRecord> all_reads;
  std::vector<std::size_t> read_count(payloads.size(), 0);
  for (std::size_t r = 0; r < payloads.size(); ++r) {
    std::istringstream in{std::string(payloads[r])};
    io::FastxPolicy policy;
    policy.on_bad_record = on_bad_record_;
    policy.path = "request";
    io::FastxReader reader(in, std::move(policy));
    const std::size_t first = all_reads.size();
    try {
      io::FastxRecord rec;
      while (reader.next(rec)) all_reads.push_back(std::move(rec));
      read_count[r] = all_reads.size() - first;
      results[r].reads = read_count[r];
      results[r].skipped = reader.skipped();
    } catch (...) {
      // Malformed payload under the abort policy (or an internal parser
      // failure): fail this request alone, drop its partial reads.
      all_reads.resize(first);
      results[r].status = common::Status::fromCurrentException();
      results[r].reads = 0;
    }
  }

  pipeline::BatchOutputMap outmap;
  std::vector<io::PafRecord> records;
  try {
    records = pipeline_.mapBatch(all_reads, cancel, &outmap);
  } catch (...) {
    // The batch died as a whole — in practice only the cooperative
    // cancellation throws here (per-read failures degrade in place).
    // Every not-already-failed request shares the batch's fate; the
    // group deadline is the latest member deadline, so each of them is
    // individually past due.
    const common::Status st = common::Status::fromCurrentException();
    for (std::size_t r = 0; r < payloads.size(); ++r) {
      if (results[r].status.ok()) results[r].status = st;
    }
    return;
  }

  // Split the flat record vector back per request: read i emitted
  // outmap.records_per_read[i] consecutive records, reads are grouped in
  // input order, and requests contributed contiguous read ranges.
  std::size_t read_idx = 0;
  std::size_t rec_idx = 0;
  for (std::size_t r = 0; r < payloads.size(); ++r) {
    if (!results[r].status.ok()) continue;
    RequestResult& res = results[r];
    for (std::size_t k = 0; k < read_count[r]; ++k, ++read_idx) {
      const std::uint32_t n = outmap.records_per_read[read_idx];
      for (std::uint32_t j = 0; j < n; ++j, ++rec_idx) {
        io::appendPafLine(res.paf, records[rec_idx]);
        res.paf += '\n';
      }
      res.records += n;
      res.failed += outmap.read_failed[read_idx];
    }
  }
}

}  // namespace gx::server
