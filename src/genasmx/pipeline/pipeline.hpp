#pragma once
// MappingPipeline — the paper's end-to-end read-mapping system: FASTQ
// reads stream in batches through candidate generation (minimizer
// seeding + chaining on both strands), windowed GenASM alignment of each
// read's best-N candidates via the AlignmentEngine (any registered
// backend), MAPQ estimation from best-vs-second-best alignment quality,
// and PAF emission with cg:Z: CIGARs.
//
// Layer stack: io -> pipeline -> mapper (over an IndexView) + engine ->
// solvers. The index behind the view may be built in memory or mmap'd
// from a genasmx_index file; both produce byte-identical PAF. The
// pipeline owns the candidate→read fan-out: each alignment phase
// flattens the candidates of every read in a batch into one engine
// batch (reference windows are passed as views into the genome, never
// copied), then folds the results back per read. The engine packs those
// batches into SIMD lanes and isolates a throwing task. Output is
// deterministic — byte-identical PAF for any thread count, SIMD level
// and index source (tests/data/golden/ records it).
//
// Primary-only mapping scores before it tracebacks: phase 1 aligns each
// read's chain-best candidate once, which freezes the read's score cap,
// then distance-scores the other candidates under that cap (a hopeless
// candidate aborts its window march early); phase 2 traceback-aligns
// only winners that are not the chain-best candidate. MAPQ needs
// nothing beyond the best and second-best distances.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "genasmx/engine/engine.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/io/paf.hpp"
#include "genasmx/mapper/mapper.hpp"
#include "genasmx/refmodel/reference.hpp"
#include "genasmx/sketch/sketch.hpp"
#include "genasmx/util/scratch_pool.hpp"

namespace gx::pipeline {

/// Phase-1 candidate prefilter mode (primary-only flow).
enum class PrefilterMode {
  kOff,    ///< score every candidate (default)
  kSketch  ///< weighted-minhash similarity screen before distanceBatch
};

/// Sketch-prefilter knobs. The filter is *relative*: after the
/// chain-best alignment freezes the read's score cap, the read sketch is
/// compared against the chain-best window's sketch to calibrate what
/// "similar at this read's error rate" looks like, and a non-best
/// candidate is dropped iff its own estimated similarity falls below
/// keep_ratio of that calibration value. An absolute threshold can't
/// work here: a diverged-repeat candidate shares most of the read's
/// k-mers yet still loses by far more than the cap.
struct PrefilterConfig {
  PrefilterMode mode = PrefilterMode::kOff;
  sketch::SketchParams sketch{};
  /// Drop a non-best candidate iff est < keep_ratio * best_est. Lower =
  /// more conservative (fewer drops).
  double keep_ratio = 0.55;
  /// Calibration floor: if the chain-best window itself estimates below
  /// this, the read's sketch carries no signal — filter nothing.
  double min_best_similarity = 0.02;
  /// Reads with fewer minimizers than this are never filtered.
  std::size_t min_minimizers = 8;
};

struct PipelineConfig {
  engine::EngineConfig engine{};  ///< backend, threads, aligner knobs
  mapper::MapperConfig mapper{};  ///< seeding/chaining knobs
  /// Best-N candidate windows aligned per read (the paper aligns every
  /// kept chain; capping bounds worst-case repeat blowup).
  std::size_t max_candidates = 4;
  /// Reads mapped + aligned per streaming batch.
  std::size_t batch_reads = 256;
  /// Emit non-primary alignments (mapq 0) in addition to the primary.
  /// Every emitted record needs a CIGAR, so this flow full-aligns all
  /// candidates and ranks by match count. Primary-only mapping instead
  /// ranks by edit distance and runs the score-then-traceback flow
  /// described at the top of this file.
  bool emit_secondary = true;
  /// MAPQ ceiling (minimap2 convention).
  int mapq_cap = 60;
  /// What run() does with a malformed input record: kAbort (default,
  /// the historical throw-on-first-error), or kSkip/kWarn — resync to
  /// the next record and keep mapping (io::FastxReader's degradation
  /// policy; every skip is counted in the RunReport).
  io::OnBadRecord on_bad_record = io::OnBadRecord::kAbort;
  /// Admission cap: reads longer than this many bases are rejected
  /// before mapping (counted as rejected_reads / resource-limit in the
  /// RunReport; nothing is emitted for them). 0 = unlimited — the
  /// default keeps clean runs byte-identical to earlier releases.
  std::size_t max_read_len = 0;
  /// Admission cap on sequence bytes per mapping batch: a batch closes
  /// early once it holds this much sequence, bounding peak memory
  /// against pathological read-length mixes. 0 = unlimited. Per-read
  /// output is independent of batch boundaries, so any value emits
  /// byte-identical PAF.
  std::size_t max_batch_bytes = 0;
  /// Phase-1 sketch prefilter (primary-only flow only): drop candidates
  /// whose estimated read~window similarity says they cannot beat the
  /// frozen score cap, before they reach distanceBatch. Off by default —
  /// may suppress true runner-up distances, so PAF with the filter on is
  /// not guaranteed byte-identical to the unfiltered flow (recall is
  /// bounded by tests instead). Filter decisions use the frozen
  /// post-chain-best cap, so any thread count emits the same PAF.
  PrefilterConfig prefilter{};
};

struct PipelineStats {
  std::size_t reads = 0;           ///< reads seen
  std::size_t mapped_reads = 0;    ///< reads with >= 1 emitted record
  std::size_t unmapped_reads = 0;  ///< reads with no candidate
  std::size_t candidates = 0;      ///< candidate windows dispatched
  std::size_t records = 0;         ///< PAF records emitted
};

/// Robustness accounting, accumulated across every run()/mapBatch()
/// call: what came in, what went out, and every degradation in between.
/// A clean run has every counter at zero except records_in/records_out;
/// anything else means input was skipped, rejected, or mapped without a
/// full alignment — visible here instead of silently shaping the output.
struct RunReport {
  std::uint64_t records_in = 0;   ///< records parsed from the input
  std::uint64_t records_out = 0;  ///< PAF records written by run()
  std::uint64_t skipped_bad_records = 0;  ///< malformed, skipped by policy
  std::uint64_t rejected_reads = 0;       ///< admission caps (resource-limit)
  std::uint64_t failed_reads = 0;  ///< degraded after per-read failures
  std::uint64_t failed_tasks = 0;  ///< engine tasks that failed in isolation
  common::ErrorCounts errors;      ///< occurrences per ErrorCode
  common::Status first_error;      ///< first failure seen, ok() if none

  /// True when nothing was skipped, rejected, degraded, or failed.
  [[nodiscard]] bool clean() const noexcept {
    return skipped_bad_records == 0 && rejected_reads == 0 &&
           failed_reads == 0 && failed_tasks == 0 && errors.total() == 0 &&
           first_error.ok();
  }

  /// Compact multi-line summary ("[genasmx] run report: ..."). run()
  /// prints this to stderr whenever !clean(); tools call it explicitly.
  void print(std::ostream& os) const;
};

/// Per-stage wall-clock breakdown, accumulated across every mapBatch()/
/// run() call, so perf work can attribute wins stage by stage. Stage
/// timers wrap whole (possibly parallel) sections, so the five numbers
/// sum to roughly the end-to-end mapping wall time.
struct StageTimes {
  double index_build_s = 0;     ///< reference indexing (constructor)
  double seed_chain_s = 0;      ///< minimizer seeding + chaining
  double phase1_distance_s = 0; ///< primary-only phase 1 (scoring)
  /// Sketch-prefilter CPU seconds, summed across workers. A *sub-stage*
  /// of phase 1 (already inside phase1_distance_s, not additive with it);
  /// 0 unless the prefilter is on.
  double sketch_s = 0;
  double traceback_s = 0;       ///< full traceback alignment batches
  double output_s = 0;          ///< record construction + PAF writing
  friend StageTimes operator-(const StageTimes& a, const StageTimes& b) {
    return {a.index_build_s - b.index_build_s,
            a.seed_chain_s - b.seed_chain_s,
            a.phase1_distance_s - b.phase1_distance_s,
            a.sketch_s - b.sketch_s,
            a.traceback_s - b.traceback_s,
            a.output_s - b.output_s};
  }
};

/// Sketch-prefilter accounting, accumulated across every mapBatch()/
/// run() call. sequence_scans counts full-sequence minimizer scans the
/// sketch layer performed; the pipeline performs none — read sketches
/// reuse the minimizers the seeding scan already extracted, and window
/// sketches are served from the position-sorted index table — so this
/// counter staying 0 proves every sequence is scanned exactly once.
struct PrefilterStats {
  std::uint64_t reads_sketched = 0;      ///< reads with an active filter
  std::uint64_t windows_sketched = 0;    ///< candidate windows sketched
  std::uint64_t candidates_seen = 0;     ///< non-chain-best candidates seen
  std::uint64_t candidates_filtered = 0; ///< dropped before distanceBatch
  std::uint64_t sequence_scans = 0;      ///< sketch-layer sequence scans
  std::uint64_t scratch_grow_events = 0; ///< buffer growth; constant once warm
};

/// Cooperative cancellation for one mapBatch() call, checked at pipeline
/// stage boundaries (after seeding/chaining, after each alignment phase,
/// before emission) — the granularity the server's per-request deadlines
/// need without threading a flag through every solver loop. Either
/// trigger aborts the batch with a kResourceLimit error; nothing is
/// emitted for it and the pipeline stays reusable.
struct Cancellation {
  /// Absolute wall deadline; max() (the default) never expires.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Optional external kill switch (e.g. "every owner of this batch has
  /// disconnected"); nullptr = never.
  const std::atomic<bool>* cancelled = nullptr;

  [[nodiscard]] bool expired() const noexcept;
  /// Throws common::Error(kResourceLimit) when expired — the transient,
  /// retryable code the server maps to its shedding reply.
  void check() const;
};

/// Per-read output map filled by mapBatch() for callers that must split
/// one batch's flat record vector back to its originating reads — the
/// server coalesces several requests into one batch and splits replies
/// with exactly these counts. Records are grouped by read in input
/// order, so records_per_read[i] consecutive records belong to read i.
struct BatchOutputMap {
  std::vector<std::uint32_t> records_per_read;
  std::vector<unsigned char> read_failed;  ///< 1 = degraded after a failure
};

class MappingPipeline {
 public:
  /// Indexes `ref` and owns the result (throws what Mapper/
  /// AlignmentEngine construction throws, e.g. std::invalid_argument for
  /// an unknown backend). The index build is parallelized per contig on
  /// the engine's pool; PAF records carry each candidate's contig name,
  /// length, and contig-local coordinates.
  explicit MappingPipeline(refmodel::Reference ref, PipelineConfig cfg = {});

  /// Map against an externally owned index (e.g. a MappedIndex opened
  /// from a `genasmx_index` file): no FASTA parse, no index build —
  /// cfg.mapper's k/w/max_occ are taken from the view. The view's owner
  /// must outlive the pipeline. index_build_s stays 0 on this path.
  explicit MappingPipeline(mapper::IndexView index, PipelineConfig cfg = {});

  /// Map against an externally owned index AND an externally owned
  /// engine. This is the session shape the server layer uses: many
  /// pipelines (one per worker, each with its own scratch and stats)
  /// share one immutable index and one AlignmentEngine, so the SIMD
  /// lanes and the spare-aligner pool are shared process-wide instead of
  /// duplicated per session. cfg.engine is ignored — the shared engine's
  /// backend/threads win. Both `index`'s owner and `shared_engine` must
  /// outlive the pipeline.
  MappingPipeline(mapper::IndexView index, engine::AlignmentEngine& shared_engine,
                  PipelineConfig cfg = {});

  [[nodiscard]] const PipelineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const mapper::Mapper& mapper() const noexcept {
    return mapper_;
  }
  [[nodiscard]] engine::AlignmentEngine& engine() noexcept { return *engine_; }

  /// Map one batch of reads. Records are grouped by read in input order,
  /// primary record first within each read; deterministic for any thread
  /// count. Reads whose best candidates all fail to align still emit one
  /// CIGAR-less record from the best chain (mapq 0, no cg:Z: tag); reads
  /// with no candidate emit nothing.
  [[nodiscard]] std::vector<io::PafRecord> mapBatch(
      const std::vector<io::FastxRecord>& reads);

  /// mapBatch with cooperative cancellation and an optional per-read
  /// output map (see Cancellation / BatchOutputMap). Identical records
  /// to the plain overload whenever the batch is not cancelled.
  [[nodiscard]] std::vector<io::PafRecord> mapBatch(
      const std::vector<io::FastxRecord>& reads, const Cancellation& cancel,
      BatchOutputMap* outmap = nullptr);

  /// Stream `reads_in` (FASTA/FASTQ) through mapBatch() in
  /// config().batch_reads chunks (closing a batch early if
  /// max_batch_bytes says so), writing PAF to `out`. Returns the
  /// aggregate statistics of this run. Degradations — skipped bad
  /// records, rejected over-cap reads, per-read alignment failures —
  /// are tallied in report(), which is also printed to stderr whenever
  /// it is not clean. `input_path` only labels diagnostics.
  PipelineStats run(std::istream& reads_in, io::PafWriter& out,
                    const std::string& input_path = "");

  /// Statistics accumulated across every mapBatch()/run() call.
  [[nodiscard]] const PipelineStats& stats() const noexcept { return stats_; }

  /// Robustness accounting accumulated across every mapBatch()/run()
  /// call (see RunReport).
  [[nodiscard]] const RunReport& report() const noexcept { return report_; }

  /// Per-stage timing accumulated across every mapBatch()/run() call
  /// (index_build_s is charged once, at construction).
  [[nodiscard]] const StageTimes& stageTimes() const noexcept {
    return times_;
  }

  /// Sketch-prefilter accounting accumulated across every mapBatch()/
  /// run() call; all zeros unless config().prefilter.mode is kSketch.
  [[nodiscard]] const PrefilterStats& prefilterStats() const noexcept {
    return prefilter_stats_;
  }

  /// Seed/chain scratch growth (mapper::SeedScratch::growEvents) summed
  /// over every worker scratch; constant across batches once warm. Call
  /// between batches.
  [[nodiscard]] std::uint64_t seedGrowEvents() const;

 private:
  /// Per-worker sketch state of the prefilter.
  struct SketchWorker {
    sketch::SketchScratch scratch;
    sketch::SequenceSketch read_sketch;
    sketch::SequenceSketch window_sketch;
  };

  /// Re-sort the index's (key -> position) arrays into a position-sorted
  /// (position -> key) table when the sketch prefilter is on; no-op
  /// otherwise. Charged to StageTimes::index_build_s.
  void buildPrefilterTable();

  PipelineConfig cfg_;
  /// Engine storage: owned on the classic ctors, empty when sharing.
  /// Either way engine_ is the one engine every batch dispatches to;
  /// it sits before mapper_ because its pool builds the index.
  std::unique_ptr<engine::AlignmentEngine> owned_engine_;
  engine::AlignmentEngine* engine_;
  StageTimes times_;  ///< before mapper_: ctor times the build
  mapper::Mapper mapper_;
  PipelineStats stats_;
  RunReport report_;
  PrefilterStats prefilter_stats_;
  std::mutex sketch_mu_;  ///< guards the prefilter stat folds
  /// Per-worker scratch, leased per pool chunk (util/scratch_pool.hpp).
  util::ScratchPool<SketchWorker> sketch_spares_;
  util::ScratchPool<mapper::SeedScratch> seed_spares_;
  /// The reference's kept minimizers re-sorted by global position
  /// (parallel arrays, built once when the prefilter is on): a candidate
  /// window's minimizer keys are the contiguous pf_keys_ subrange whose
  /// pf_positions_ fall inside the window, found by binary search — so
  /// window sketches cost O(window minimizers) and never rescan sequence.
  std::vector<std::uint32_t> pf_positions_;
  std::vector<std::uint64_t> pf_keys_;
};

}  // namespace gx::pipeline
