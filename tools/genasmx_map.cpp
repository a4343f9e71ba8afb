// genasmx_map — the paper's end-to-end read mapper: minimizer
// seeding/chaining candidates feeding windowed GenASM (or any registered
// backend) through the batched MappingPipeline, emitting PAF with cg:Z:
// CIGARs. Multi-contig references map per contig (contig-table reference
// model; PAF target name/length/coordinates are contig-local, never a
// merged coordinate space), and the index build parallelizes per contig
// on the worker pool. Output is byte-identical for any --threads value
// and for either index source (--ref rebuild vs --index mmap).
//
//   genasmx_map --ref <reference.fa> --reads <reads.fa|fq> [options]
//   genasmx_map --index <ref.gxi>    --reads <reads.fa|fq> [options]
//   genasmx_map <reference.fa> <reads.fa|fq> [options]        (compat)
//
// Options (--opt VALUE and --opt=VALUE are both accepted):
//   --ref FILE             reference FASTA (parsed + indexed in memory)
//   --index FILE           prebuilt index from genasmx_index (mmap'd;
//                          contains the reference — no FASTA needed)
//   --reads FILE           reads FASTA/FASTQ
//   --out FILE             write PAF to FILE instead of stdout
//                          (--paf FILE is an accepted alias)
//   --backend NAME         alignment backend (default windowed-improved);
//                          see --list-backends
//   --threads N            worker threads (0=auto)
//   --max-candidates N     candidate windows aligned per read (default 4)
//   --batch N              reads per streaming batch (default 256)
//   --window W --overlap O window geometry (windowed-improved)
//   --primary-only         suppress secondary (mapq 0) records; ranks
//                          candidates by capped edit distance and
//                          traceback-aligns only the winner
//   --prefilter MODE       off (default) | sketch: weighted-minhash
//                          similarity screen that drops hopeless
//                          candidates before phase-1 distance scoring
//                          (requires --primary-only)
//   --stats-json FILE      write stage times + run counters as one JSON
//                          object to FILE (stderr text unchanged)
//   --no-verify            skip the index payload checksum at --index
//                          load (header checksum is always verified)
//   --on-bad-record MODE   abort (default) | skip | warn: what to do
//                          with a malformed input record — abort throws,
//                          skip/warn resync to the next record and count
//                          it (warn also prints the one-line error)
//   --max-read-len N       reject reads longer than N bases before
//                          mapping (0 = unlimited)
//   --max-batch-bytes N    close a mapping batch early once it holds N
//                          sequence bytes (0 = unlimited)
//   --fault SPEC           deterministic fault injection (testing), e.g.
//                          truncate@4096, eio@rec:17, enospc@out:2;
//                          GENASMX_FAULT env is the no-flag equivalent
//                          (the flag wins when both are set)
//   --list-backends        print registered backends and exit
//
// Exit codes: 0 success, 1 runtime failure (including any output write
// failure — a truncated PAF is never reported as success), 2 usage.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cli.hpp"
#include "genasmx/common/error.hpp"
#include "genasmx/engine/registry.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/io/fault.hpp"
#include "genasmx/io/paf.hpp"
#include "genasmx/mapper/index_io.hpp"
#include "genasmx/pipeline/pipeline.hpp"
#include "genasmx/refmodel/reference.hpp"
#include "genasmx/util/timer.hpp"

namespace {

struct Options {
  std::string ref_path;
  std::string index_path;
  std::string reads_path;
  std::string out_path;  ///< empty = stdout
  std::string backend = "windowed-improved";
  std::size_t threads = 0;
  std::size_t max_candidates = 4;
  std::size_t batch = 256;
  int window = 64;
  int overlap = 24;
  bool primary_only = false;
  std::string prefilter = "off";
  std::string stats_json_path;
  bool no_verify = false;
  bool list_backends = false;
  std::string on_bad_record = "abort";
  std::size_t max_read_len = 0;
  std::size_t max_batch_bytes = 0;
  std::string fault;  ///< fault-injection spec ("" = GENASMX_FAULT env)
};

bool parseArgs(int argc, char** argv, Options& opt) {
  std::string pos_ref, pos_reads;
  gx::cli::Parser cli;
  cli.option("--ref", opt.ref_path);
  cli.option("--index", opt.index_path);
  cli.option("--reads", opt.reads_path);
  cli.option("--out", opt.out_path);
  cli.option("--paf", opt.out_path);  // pre---out alias
  cli.option("--backend", opt.backend);
  cli.option("--threads", opt.threads);
  cli.option("--max-candidates", opt.max_candidates);
  cli.option("--batch", opt.batch);
  cli.option("--window", opt.window);
  cli.option("--overlap", opt.overlap);
  cli.flag("--primary-only", opt.primary_only);
  cli.option("--prefilter", opt.prefilter);
  cli.option("--stats-json", opt.stats_json_path);
  cli.flag("--no-verify", opt.no_verify);
  cli.flag("--list-backends", opt.list_backends);
  cli.option("--on-bad-record", opt.on_bad_record);
  cli.option("--max-read-len", opt.max_read_len);
  cli.option("--max-batch-bytes", opt.max_batch_bytes);
  cli.option("--fault", opt.fault);
  cli.positional(pos_ref);    // compat: genasmx_map ref.fa reads.fq
  cli.positional(pos_reads);
  if (!cli.parse(argc, argv)) return false;
  if (opt.ref_path.empty() && !pos_ref.empty()) opt.ref_path = pos_ref;
  if (opt.reads_path.empty() && !pos_reads.empty()) opt.reads_path = pos_reads;
  if (opt.list_backends) return true;
  if (!opt.ref_path.empty() && !opt.index_path.empty()) {
    std::fprintf(stderr, "--ref and --index are mutually exclusive\n");
    return false;
  }
  if (opt.prefilter != "off" && opt.prefilter != "sketch") {
    std::fprintf(stderr, "--prefilter must be off or sketch (got '%s')\n",
                 opt.prefilter.c_str());
    return false;
  }
  if (opt.prefilter == "sketch" && !opt.primary_only) {
    std::fprintf(stderr, "--prefilter=sketch requires --primary-only\n");
    return false;
  }
  if (opt.on_bad_record != "abort" && opt.on_bad_record != "skip" &&
      opt.on_bad_record != "warn") {
    std::fprintf(stderr,
                 "--on-bad-record must be abort, skip, or warn (got '%s')\n",
                 opt.on_bad_record.c_str());
    return false;
  }
  return (!opt.ref_path.empty() || !opt.index_path.empty()) &&
         !opt.reads_path.empty();
}

/// --stats-json: everything the stderr report says — stage times, mapping
/// stats, the PR-8 RunReport counters, and the prefilter accounting — as
/// one machine-readable object. Stderr text stays the authoritative
/// human surface; this file is for harnesses and dashboards.
bool writeStatsJson(const std::string& path,
                    const gx::pipeline::MappingPipeline& pipe,
                    const gx::pipeline::PipelineStats& stats,
                    double map_seconds) {
  const gx::pipeline::StageTimes& st = pipe.stageTimes();
  const gx::pipeline::RunReport& rr = pipe.report();
  const gx::pipeline::PrefilterStats& pf = pipe.prefilterStats();
  const bool sketch_on =
      pipe.config().prefilter.mode == gx::pipeline::PrefilterMode::kSketch;
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n";
  out << "  \"stage_seconds\": {\"index_build\": " << st.index_build_s
      << ", \"seed_chain\": " << st.seed_chain_s
      << ", \"phase1_distance\": " << st.phase1_distance_s
      << ", \"sketch\": " << st.sketch_s
      << ", \"phase2_traceback\": " << st.traceback_s
      << ", \"output\": " << st.output_s << "},\n";
  out << "  \"stats\": {\"reads\": " << stats.reads
      << ", \"mapped_reads\": " << stats.mapped_reads
      << ", \"unmapped_reads\": " << stats.unmapped_reads
      << ", \"candidates\": " << stats.candidates
      << ", \"records\": " << stats.records << "},\n";
  out << "  \"report\": {\"records_in\": " << rr.records_in
      << ", \"records_out\": " << rr.records_out
      << ", \"skipped_bad_records\": " << rr.skipped_bad_records
      << ", \"rejected_reads\": " << rr.rejected_reads
      << ", \"failed_reads\": " << rr.failed_reads
      << ", \"failed_tasks\": " << rr.failed_tasks
      << ", \"clean\": " << (rr.clean() ? "true" : "false") << "},\n";
  out << "  \"prefilter\": {\"mode\": \"" << (sketch_on ? "sketch" : "off")
      << "\", \"reads_sketched\": " << pf.reads_sketched
      << ", \"windows_sketched\": " << pf.windows_sketched
      << ", \"candidates_seen\": " << pf.candidates_seen
      << ", \"candidates_filtered\": " << pf.candidates_filtered
      << ", \"sequence_scans\": " << pf.sequence_scans
      << ", \"scratch_grow_events\": " << pf.scratch_grow_events << "},\n";
  out << "  \"map_seconds\": " << map_seconds << ",\n";
  out << "  \"reads_per_sec\": "
      << (map_seconds > 0 ? static_cast<double>(stats.reads) / map_seconds
                          : 0.0)
      << "\n}\n";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gx;
  cli::ignoreSigpipe();
  Options opt;
  if (!parseArgs(argc, argv, opt)) {
    std::fprintf(
        stderr,
        "usage: genasmx_map (--ref <reference.fa> | --index <ref.gxi>) "
        "--reads <reads.fa|fq> [--out FILE] [--backend NAME] [--threads N] "
        "[--max-candidates N] [--batch N] [--window W] [--overlap O] "
        "[--primary-only] [--prefilter off|sketch] "
        "[--stats-json FILE] [--no-verify] "
        "[--on-bad-record abort|skip|warn] [--max-read-len N] "
        "[--max-batch-bytes N] [--fault SPEC] [--list-backends]\n"
        "       genasmx_map <reference.fa> <reads.fa|fq> [options]\n");
    return 2;
  }
  auto& registry = engine::AlignerRegistry::instance();
  if (opt.list_backends) {
    for (const auto& name : registry.names()) {
      std::printf("%-20s %s\n", name.c_str(),
                  registry.description(name).c_str());
    }
    return 0;
  }
  if (!registry.contains(opt.backend)) {
    std::fprintf(stderr, "error: unknown backend '%s' (see --list-backends)\n",
                 opt.backend.c_str());
    return 2;
  }

  // Fault injection: --fault wins over GENASMX_FAULT; an empty spec
  // installs nothing. The guard must outlive everything that touches
  // I/O, so it sits above index loading.
  std::string fault_spec = opt.fault;
  if (fault_spec.empty()) {
    if (const char* env = std::getenv("GENASMX_FAULT")) fault_spec = env;
  }
  io::FaultPlan fault_plan;
  if (!fault_spec.empty()) {
    try {
      fault_plan = io::FaultPlan::parse(fault_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  const io::ScopedFaultInjection fault_guard(std::move(fault_plan));

  pipeline::PipelineConfig cfg;
  cfg.engine.backend = opt.backend;
  cfg.engine.threads = opt.threads;
  cfg.engine.aligner.window.window = opt.window;
  cfg.engine.aligner.window.overlap = opt.overlap;
  cfg.engine.aligner.ksw.band = 751;  // minimap2's long-read band regime
  cfg.max_candidates = opt.max_candidates;
  cfg.batch_reads = opt.batch;
  cfg.emit_secondary = !opt.primary_only;
  cfg.on_bad_record = opt.on_bad_record == "skip"   ? io::OnBadRecord::kSkip
                      : opt.on_bad_record == "warn" ? io::OnBadRecord::kWarn
                                                    : io::OnBadRecord::kAbort;
  cfg.max_read_len = opt.max_read_len;
  cfg.max_batch_bytes = opt.max_batch_bytes;
  cfg.prefilter.mode = opt.prefilter == "sketch"
                           ? pipeline::PrefilterMode::kSketch
                           : pipeline::PrefilterMode::kOff;

  util::Timer timer;
  std::unique_ptr<mapper::MappedIndex> mapped;  // keeps --index storage alive
  std::unique_ptr<pipeline::MappingPipeline> pipe;
  if (!opt.index_path.empty()) {
    // Serve-from-disk path: the index file carries the reference, so the
    // pipeline opens with zero FASTA parsing and zero index building.
    try {
      mapper::MappedIndex::Options mopt;
      mopt.verify_payload = !opt.no_verify;
      mapped = std::make_unique<mapper::MappedIndex>(opt.index_path, mopt);
      pipe = std::make_unique<pipeline::MappingPipeline>(mapped->view(), cfg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::fprintf(stderr, "[%.2fs] index %s mapped (%zu bytes)\n",
                 timer.seconds(), opt.index_path.c_str(),
                 mapped->fileBytes());
  } else {
    std::vector<io::FastxRecord> ref_records;
    refmodel::Reference reference;
    try {
      ref_records = io::readFastxFile(opt.ref_path);
      if (ref_records.empty()) {
        std::fprintf(stderr, "error: empty reference %s\n",
                     opt.ref_path.c_str());
        return 1;
      }
      reference = refmodel::referenceFromFastx(ref_records);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    ref_records.clear();
    ref_records.shrink_to_fit();
    std::fprintf(stderr, "[%.2fs] reference %zu bp (%u contigs)\n",
                 timer.seconds(), reference.size(), reference.contigCount());
    try {
      pipe = std::make_unique<pipeline::MappingPipeline>(std::move(reference),
                                                         cfg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  const auto& ref = pipe->mapper().reference();
  const mapper::IndexView& index = pipe->mapper().index();
  std::fprintf(stderr,
               "[%.2fs] index ready (%zu minimizers over %u contigs, %s), "
               "%s backend, %zu threads\n",
               timer.seconds(), index.size(), ref.contigCount(),
               opt.index_path.empty() ? "parallel per-contig build"
                                      : "served from disk",
               opt.backend.c_str(), pipe->engine().threads());
  const std::uint32_t shown = std::min(ref.contigCount(), 16u);
  for (std::uint32_t c = 0; c < shown; ++c) {
    std::fprintf(stderr, "  contig %-20s %10zu bp  %8zu minimizers\n",
                 ref.name(c).c_str(), ref.contig(c).length,
                 static_cast<std::size_t>(index.perContigKept(c)));
  }
  if (shown < ref.contigCount()) {
    std::fprintf(stderr, "  ... and %u more contigs\n",
                 ref.contigCount() - shown);
  }

  std::ifstream reads_in(opt.reads_path);
  if (!reads_in) {
    std::fprintf(stderr, "error: cannot open %s\n", opt.reads_path.c_str());
    return 1;
  }
  std::ofstream paf_file;
  if (!opt.out_path.empty()) {
    paf_file.open(opt.out_path);
    if (!paf_file) {
      std::fprintf(stderr, "error: cannot open %s\n", opt.out_path.c_str());
      return 1;
    }
  }
  std::ostream& paf_out = opt.out_path.empty() ? std::cout : paf_file;

  pipeline::PipelineStats stats;
  util::Timer map_timer;
  try {
    io::PafWriter writer(paf_out);
    stats = pipe->run(reads_in, writer, opt.reads_path);
    writer.close();  // final flush + stream check: surfaces here, not in ~
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  // A PAF that did not fully reach the file is a failure, not a success
  // with a warning: check the sink's final state before reporting.
  if (!opt.out_path.empty()) {
    paf_file.close();
    if (!paf_file) {
      std::fprintf(stderr, "error: %s\n",
                   common::formatError(common::ErrorCode::kIoFatal,
                                       "closing " + opt.out_path +
                                           " failed (disk full?)",
                                       {})
                       .c_str());
      return 1;
    }
  } else if (!std::cout) {
    std::fprintf(
        stderr, "error: %s\n",
        common::formatError(common::ErrorCode::kIoFatal,
                            "writing PAF to stdout failed (closed pipe?)", {})
            .c_str());
    return 1;
  }
  const double map_seconds = map_timer.seconds();
  std::fprintf(stderr,
               "[%.2fs] %zu reads: %zu mapped, %zu unmapped; %zu candidates "
               "aligned, %zu PAF records (%.1f reads/s)\n",
               timer.seconds(), stats.reads, stats.mapped_reads,
               stats.unmapped_reads, stats.candidates, stats.records,
               map_seconds > 0 ? static_cast<double>(stats.reads) / map_seconds
                               : 0.0);
  // Per-stage breakdown so perf work can attribute wins. The phase-1 /
  // phase-2 split only exists in the primary-only flow; the default flow
  // charges its engine batch to the traceback stage.
  const pipeline::StageTimes& st = pipe->stageTimes();
  std::fprintf(stderr,
               "[%.2fs] stage breakdown: index-build %.2fs, seed+chain "
               "%.2fs, phase1-distance %.2fs (sketch %.2fs), "
               "phase2-traceback %.2fs, output %.2fs\n",
               timer.seconds(), st.index_build_s, st.seed_chain_s,
               st.phase1_distance_s, st.sketch_s, st.traceback_s,
               st.output_s);
  const pipeline::PrefilterStats& pf = pipe->prefilterStats();
  if (opt.prefilter == "sketch") {
    std::fprintf(stderr,
                 "[%.2fs] prefilter: %llu of %llu non-best candidates "
                 "dropped (%llu reads, %llu windows sketched)\n",
                 timer.seconds(),
                 static_cast<unsigned long long>(pf.candidates_filtered),
                 static_cast<unsigned long long>(pf.candidates_seen),
                 static_cast<unsigned long long>(pf.reads_sketched),
                 static_cast<unsigned long long>(pf.windows_sketched));
  }
  if (!opt.stats_json_path.empty() &&
      !writeStatsJson(opt.stats_json_path, *pipe, stats, map_seconds)) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 opt.stats_json_path.c_str());
    return 1;
  }
  return 0;
}
