#include "genasmx/pipeline/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <istream>
#include <limits>
#include <ostream>
#include <utility>

#include "genasmx/common/sequence.hpp"
#include "genasmx/util/timer.hpp"

namespace gx::pipeline {
namespace {

/// Construct the mapper (which builds the index on the engine's pool)
/// under a timer, charging the cost to StageTimes::index_build_s.
mapper::Mapper buildMapperTimed(refmodel::Reference ref,
                                const mapper::MapperConfig& cfg,
                                util::ThreadPool* pool, double& seconds) {
  util::Timer t;
  mapper::Mapper m(std::move(ref), cfg, pool);
  seconds = t.seconds();
  return m;
}

/// Per-read working state for one batch. Slots are written only by the
/// worker that owns the read, so the parallel fan-out stays race-free
/// and thread-count independent.
struct ReadWork {
  std::vector<mapper::Candidate> cands;
  std::string rc;  ///< reverse complement, filled iff a candidate needs it
  /// The read's minimizers, copied from the seeding scan when the sketch
  /// prefilter is on, so it never rescans the read. Canonical keys are
  /// strand-symmetric, so one set serves both strands' candidates.
  std::vector<mapper::Minimizer> mins;
};

/// minimap2-style confidence from best (s1) vs second-best (s2)
/// alignment quality: full cap when the runner-up is far behind, 0 when
/// the top two candidates are indistinguishable.
int computeMapq(std::uint64_t s1, std::uint64_t s2, int cap) {
  if (s1 == 0 || s2 >= s1) return 0;
  const double frac =
      1.0 - static_cast<double>(s2) / static_cast<double>(s1);
  const int mapq = static_cast<int>(std::lround(cap * frac));
  return std::clamp(mapq, 0, cap);
}

/// The distance-based analogue for the primary-only flow: d1/d2 are the
/// best and second-best candidate edit distances (-1 = absent). Smaller
/// is better; confidence saturates at the full cap once the runner-up
/// has twice the winner's distance. The saturation is what makes capped
/// scoring cheap: any candidate with distance > 2*d1 yields the exact
/// same MAPQ as "no runner-up", so phase 1 may discard it mid-march
/// without ever knowing its true distance.
int computeMapqFromDistances(int d1, int d2, int cap) {
  if (d1 < 0) return 0;
  if (d2 < 0) return cap;  // no runner-up at all
  if (d2 <= d1) return 0;  // indistinguishable (covers d1 == d2 == 0)
  const double frac =
      2.0 * (1.0 - static_cast<double>(d1) / static_cast<double>(d2));
  return std::clamp(static_cast<int>(std::lround(cap * std::min(frac, 1.0))),
                    0, cap);
}

/// Best / second-best tracking over candidates in chain order, fed the
/// chain-best candidate's exact edit distance and the others' capped
/// distances. A candidate whose distance exceeds the running second-best
/// can change neither the winner nor the MAPQ.
struct Pick {
  int cand = -1;  ///< winning candidate index (chain order), -1 = none
  int d1 = -1;    ///< winner's edit distance
  int d2 = -1;    ///< runner-up's edit distance, -1 = none

  void update(int c, int d) {
    if (cand < 0 || d < d1) {
      d2 = d1;
      d1 = d;
      cand = c;
    } else if (d2 < 0 || d < d2) {
      d2 = d;
    }
  }

  /// Largest distance that could still change the emitted record. A
  /// candidate must beat the winner (>= d1 matters for the tie that
  /// zeroes MAPQ), and as a runner-up it only matters below the MAPQ
  /// saturation point min(d2, 2*d1) — beyond that the record carries the
  /// full cap either way, so the capped scorer may return -1 and the
  /// record is the one exact distances would give. Phase 1b freezes this
  /// cap after the chain-best candidate; caps only tighten as candidates
  /// score, so the frozen cap is at or above every cap a one-by-one scan
  /// would use, and equally output-preserving.
  [[nodiscard]] int scoreCap() const {
    if (cand < 0) return -1;
    long long c = 2LL * d1;
    if (d2 >= 0 && d2 < c) c = d2;
    if (c < d1) c = d1;
    return static_cast<int>(
        std::min<long long>(c, std::numeric_limits<int>::max()));
  }
};

PipelineStats operator-(const PipelineStats& a, const PipelineStats& b) {
  PipelineStats d;
  d.reads = a.reads - b.reads;
  d.mapped_reads = a.mapped_reads - b.mapped_reads;
  d.unmapped_reads = a.unmapped_reads - b.unmapped_reads;
  d.candidates = a.candidates - b.candidates;
  d.records = a.records - b.records;
  return d;
}

/// Shared PAF-record construction for both flows. Target name, length,
/// and coordinates are per contig: a candidate carries its contig id and
/// contig-local window, so no record ever reports the concatenated
/// reference size or a coordinate past its own contig.
struct RecordBuilder {
  const refmodel::Reference& ref;
  PipelineStats& stats;
  std::vector<io::PafRecord>& out;

  io::PafRecord base(const io::FastxRecord& read,
                     const mapper::Candidate& cand) const {
    io::PafRecord rec;
    rec.query_name = read.name;
    rec.query_len = read.seq.size();
    rec.reverse = cand.reverse;
    rec.target_name = ref.name(cand.contig);
    rec.target_len = ref.contig(cand.contig).length;
    return rec;
  }

  // Oriented query span -> forward-read PAF coordinates.
  static void setQuerySpan(io::PafRecord& rec, const io::FastxRecord& read,
                           std::size_t qb, std::size_t qe) {
    rec.query_begin = rec.reverse ? read.seq.size() - qe : qb;
    rec.query_end = rec.reverse ? read.seq.size() - qb : qe;
  }

  /// CIGAR-less record from the best chain, so a read whose candidates
  /// all fail to align is not silently dropped (mapq 0, no cg:Z:).
  void emitChainOnly(const io::FastxRecord& read,
                     const mapper::Candidate& cand) {
    io::PafRecord rec = base(read, cand);
    setQuerySpan(rec, read, cand.read_begin, cand.read_end);
    rec.target_begin = cand.ref_begin;
    rec.target_end = cand.ref_end;
    rec.mapq = 0;
    out.push_back(std::move(rec));
    ++stats.records;
  }

  /// Spends `cigar` (a result's, moved in): it is trimmed in place and
  /// becomes the record's only copy.
  void emitAligned(const io::FastxRecord& read, const mapper::Candidate& cand,
                   common::Cigar&& cigar, int mapq) {
    io::PafRecord rec = base(read, cand);
    // A window-global alignment pays the candidate window's slack as
    // boundary indels; trim them so the PAF span is the aligned core.
    auto trim = common::trimIndelEnds(std::move(cigar));
    rec.cigar = std::move(trim.cigar);
    const std::size_t qb = trim.query_lead;
    setQuerySpan(rec, read, qb, qb + rec.cigar.queryLength());
    rec.target_begin = cand.ref_begin + trim.target_lead;
    rec.target_end = rec.target_begin + rec.cigar.targetLength();
    rec.mapq = mapq;
    io::finalizeFromCigar(rec);
    out.push_back(std::move(rec));
    ++stats.records;
  }
};

}  // namespace

void RunReport::print(std::ostream& os) const {
  os << "[genasmx] run report: " << records_in << " records in, "
     << records_out << " records out";
  if (skipped_bad_records != 0) {
    os << ", " << skipped_bad_records << " bad records skipped";
  }
  if (rejected_reads != 0) {
    os << ", " << rejected_reads << " reads rejected (admission caps)";
  }
  if (failed_reads != 0) {
    os << ", " << failed_reads << " reads degraded after failures";
  }
  if (failed_tasks != 0) {
    os << ", " << failed_tasks << " alignment tasks failed";
  }
  os << '\n';
  if (errors.total() != 0) {
    os << "[genasmx]   error counts:";
    for (std::size_t i = 1; i < common::kErrorCodeCount; ++i) {
      const auto code = static_cast<common::ErrorCode>(i);
      if (errors[code] != 0) {
        os << ' ' << common::errorCodeName(code) << '=' << errors[code];
      }
    }
    os << '\n';
  }
  if (!first_error.ok()) {
    os << "[genasmx]   first error: " << first_error.message() << '\n';
  }
}

bool Cancellation::expired() const noexcept {
  if (cancelled != nullptr && cancelled->load(std::memory_order_relaxed)) {
    return true;
  }
  return deadline != std::chrono::steady_clock::time_point::max() &&
         std::chrono::steady_clock::now() >= deadline;
}

void Cancellation::check() const {
  if (expired()) {
    throw common::Error(common::ErrorCode::kResourceLimit,
                        "request deadline exceeded (batch cancelled at a "
                        "pipeline stage boundary)");
  }
}

MappingPipeline::MappingPipeline(refmodel::Reference ref, PipelineConfig cfg)
    : cfg_(std::move(cfg)),
      owned_engine_(std::make_unique<engine::AlignmentEngine>(cfg_.engine)),
      engine_(owned_engine_.get()),
      mapper_(buildMapperTimed(std::move(ref), cfg_.mapper, &engine_->pool(),
                               times_.index_build_s)) {
  buildPrefilterTable();
}

MappingPipeline::MappingPipeline(mapper::IndexView index, PipelineConfig cfg)
    : cfg_(std::move(cfg)),
      owned_engine_(std::make_unique<engine::AlignmentEngine>(cfg_.engine)),
      engine_(owned_engine_.get()),
      mapper_(index, cfg_.mapper) {
  buildPrefilterTable();
}

MappingPipeline::MappingPipeline(mapper::IndexView index,
                                 engine::AlignmentEngine& shared_engine,
                                 PipelineConfig cfg)
    : cfg_(std::move(cfg)),
      engine_(&shared_engine),
      mapper_(index, cfg_.mapper) {
  buildPrefilterTable();
}

void MappingPipeline::buildPrefilterTable() {
  if (cfg_.prefilter.mode != PrefilterMode::kSketch) return;
  util::Timer t;
  const mapper::IndexView& idx = mapper_.index();
  const std::size_t n = idx.size();
  const std::uint64_t* const keys = idx.keysData();
  const std::uint64_t* const values = idx.valuesData();
  // Values encode (global position << 1) | strand; every kept minimizer
  // occupies a distinct position, so sorting (position, key) pairs is a
  // pure permutation of the index — both index sources (in-memory build
  // and mmap'd file) expose identical arrays, hence identical tables.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> entries;
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    entries.emplace_back(static_cast<std::uint32_t>(values[i] >> 1), keys[i]);
  }
  std::sort(entries.begin(), entries.end());
  pf_positions_.resize(n);
  pf_keys_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    pf_positions_[i] = entries[i].first;
    pf_keys_[i] = entries[i].second;
  }
  times_.index_build_s += t.seconds();
}

std::vector<io::PafRecord> MappingPipeline::mapBatch(
    const std::vector<io::FastxRecord>& reads) {
  return mapBatch(reads, Cancellation{}, nullptr);
}

std::uint64_t MappingPipeline::seedGrowEvents() const {
  std::uint64_t events = 0;
  seed_spares_.forEach([&](const mapper::SeedScratch& seed) {
    events += seed.growEvents();
  });
  return events;
}

std::vector<io::PafRecord> MappingPipeline::mapBatch(
    const std::vector<io::FastxRecord>& reads, const Cancellation& cancel,
    BatchOutputMap* outmap) {
  // Stage 1 — candidate generation, fanned out on the engine's pool.
  // Each read is isolated: a throw poisons that read alone (it degrades
  // to unmapped), never the batch. failed[i]/read_status[i] are written
  // only by the worker that owns read i, then folded serially at
  // emission, so the accounting is deterministic at any thread count.
  util::Timer stage_timer;
  std::vector<ReadWork> work(reads.size());
  std::vector<unsigned char> failed(reads.size(), 0);
  std::vector<common::Status> read_status(reads.size());
  const bool keep_mins = cfg_.prefilter.mode == PrefilterMode::kSketch;
  engine_->pool().parallel_for(
      reads.size(), [&](std::size_t begin, std::size_t end) {
        std::unique_ptr<mapper::SeedScratch> seed = seed_spares_.lease(
            [] { return std::make_unique<mapper::SeedScratch>(); });
        for (std::size_t i = begin; i < end; ++i) {
          try {
            auto cands = mapper_.map(reads[i].seq, *seed);
            if (keep_mins) work[i].mins = seed->minimizers();
            if (cands.size() > cfg_.max_candidates) {
              cands.resize(cfg_.max_candidates);
            }
            const bool any_reverse = std::any_of(
                cands.begin(), cands.end(),
                [](const mapper::Candidate& c) { return c.reverse; });
            if (any_reverse) {
              work[i].rc = common::reverseComplement(reads[i].seq);
            }
            work[i].cands = std::move(cands);
          } catch (...) {
            work[i].cands.clear();
            work[i].rc.clear();
            work[i].mins.clear();
            read_status[i] = common::Status::fromCurrentException();
            failed[i] = 1;
          }
        }
        seed_spares_.giveBack(std::move(seed));
      });
  times_.seed_chain_s += stage_timer.seconds();
  cancel.check();

  const auto targetView = [&](const mapper::Candidate& c) {
    return mapper_.candidateText(c);  // view into the reference backing
  };
  const auto queryView = [&](std::size_t i, const mapper::Candidate& c) {
    return c.reverse ? std::string_view(work[i].rc)
                     : std::string_view(reads[i].seq);
  };

  std::vector<io::PafRecord> out;
  RecordBuilder builder{mapper_.reference(), stats_, out};

  // Per-read record counts for callers that split the batch back into
  // requests; called exactly once per read, in input order.
  const auto noteRead = [&](std::size_t i, std::size_t out_before) {
    if (outmap == nullptr) return;
    outmap->records_per_read.push_back(
        static_cast<std::uint32_t>(out.size() - out_before));
    outmap->read_failed.push_back(failed[i]);
  };

  // Fold per-read failure flags into the report during the serial
  // emission walk (input order -> deterministic first_error).
  const auto tallyFailure = [&](std::size_t i) {
    if (failed[i] == 0) return;
    ++report_.failed_reads;
    report_.errors.add(read_status[i].ok() ? common::ErrorCode::kInternal
                                           : read_status[i].code());
    if (report_.first_error.ok() && !read_status[i].ok()) {
      report_.first_error = read_status[i];
    }
  };

  // A read whose alignment task failed even in the engine's single-task
  // isolation rerun (a healthy backend always produces a result) is a
  // per-read failure: it emits a chain-only record. Phase 1 marks such
  // reads before emission; a failure seen at the emission site is marked
  // and tallied there, after the loop-top tallyFailure already ran.
  const auto markAlignmentFailure = [&](std::size_t i) {
    if (failed[i] != 0) return;
    failed[i] = 1;
    read_status[i] = common::Status(
        common::ErrorCode::kInternal,
        "candidate alignments failed; emitted chain-only record");
  };
  const auto tallyAlignmentFailure = [&](std::size_t i) {
    if (failed[i] != 0) return;
    markAlignmentFailure(i);
    tallyFailure(i);
  };

  // Candidate c of read i is flat slot offset[i] + c.
  std::vector<std::size_t> offset(reads.size() + 1, 0);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    offset[i + 1] = offset[i] + work[i].cands.size();
  }

  if (!cfg_.emit_secondary) {
    // ------------------------------------------- primary-only flow
    // Ranking and MAPQ come from edit distances (chain order breaks
    // ties), so a non-best candidate never needs a CIGAR and only a
    // winner is ever traceback-aligned. Each phase is one engine batch
    // over the whole read batch: the engine packs its chunks into SIMD
    // lanes and isolates a throwing task, and a read with any failed
    // task degrades to its chain-only record.
    std::vector<Pick> picks(reads.size());
    std::vector<common::AlignmentResult> winner(reads.size());
    std::vector<unsigned char> task_failed;

    // Phase 1a — align every read's chain-best candidate (the winner for
    // almost every read) once; its distance freezes the read's score cap.
    stage_timer.reset();
    std::vector<engine::AlignmentTask> best_tasks;
    std::vector<std::size_t> best_reads;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      if (work[i].cands.empty()) continue;
      const auto& cand = work[i].cands[0];
      best_tasks.push_back({targetView(cand), queryView(i, cand)});
      best_reads.push_back(i);
    }
    auto best = engine_->alignBatch(best_tasks, &task_failed);
    for (std::size_t k = 0; k < best_reads.size(); ++k) {
      const std::size_t i = best_reads[k];
      if (task_failed[k] != 0) {
        markAlignmentFailure(i);
        continue;
      }
      if (best[k].ok) {
        picks[i].update(0, static_cast<int>(best[k].cigar.editDistance()));
      }
      winner[i] = std::move(best[k]);
    }

    // Sketch prefilter. After phase 1a freezes a read's score cap, the
    // read's sketch (built from the minimizers the seeding scan already
    // extracted) is calibrated against the chain-best window's sketch; a
    // non-best candidate below keep_ratio of that calibration is dropped
    // before it reaches the distance kernels. A read without a frozen
    // cap, with too few minimizers, or whose calibration carries no
    // signal is not filtered. Decisions depend only on sequences and the
    // frozen cap's existence, so they are the same at any thread count.
    std::vector<unsigned char> dropped(offset.back(), 0);
    const PrefilterConfig& pf = cfg_.prefilter;
    if (pf.mode == PrefilterMode::kSketch) {
      // Sketch a candidate window straight from the position-sorted index
      // table: binary-search the window's global k-mer-start range and
      // minhash the contiguous key subrange — no sequence is touched.
      // Table entries are the reference's *globally* extracted,
      // occurrence-capped minimizers, so interior picks match a local
      // window scan (minimizer locality) while ~(w+k) bp of edge effects
      // and repeat masking apply to the chain-best and non-best windows
      // alike — the relative keep_ratio test compares like with like.
      const auto kmer = static_cast<std::uint64_t>(mapper_.config().k);
      const auto sketchCandidateWindow = [&](const mapper::Candidate& cand,
                                             SketchWorker& wkr) {
        const auto& contig = mapper_.reference().contig(cand.contig);
        const std::uint64_t gb = contig.offset + cand.ref_begin;
        const std::uint64_t ge = contig.offset + cand.ref_end;
        const auto lo_pos = static_cast<std::uint32_t>(gb);
        // Last k-mer fully inside the window starts at ge - k.
        const auto hi_pos =
            static_cast<std::uint32_t>(ge >= gb + kmer ? ge - kmer + 1 : gb);
        const auto first = std::lower_bound(pf_positions_.begin(),
                                            pf_positions_.end(), lo_pos);
        const auto last = std::lower_bound(first, pf_positions_.end(), hi_pos);
        const auto off =
            static_cast<std::size_t>(first - pf_positions_.begin());
        sketch::sketchKeys(pf_keys_.data() + off,
                           static_cast<std::size_t>(last - first), pf.sketch,
                           wkr.scratch, wkr.window_sketch);
      };
      // Each chunk leases its own SketchWorker so workers never share
      // scratch.
      engine_->pool().parallel_for(
          reads.size(), [&](std::size_t begin, std::size_t end) {
            std::unique_ptr<SketchWorker> wkr = sketch_spares_.lease(
                [] { return std::make_unique<SketchWorker>(); });
            const std::uint64_t grow_before = wkr->scratch.growEvents();
            const std::uint64_t scans_before = wkr->scratch.sequenceScans();
            PrefilterStats local;
            double seconds = 0;
            for (std::size_t i = begin; i < end; ++i) {
              const auto& cands = work[i].cands;
              if (failed[i] != 0 || cands.size() < 2) continue;
              local.candidates_seen += cands.size() - 1;
              if (picks[i].scoreCap() < 0 ||
                  work[i].mins.size() < pf.min_minimizers) {
                continue;
              }
              util::Timer t;
              sketch::sketchMinimizers(work[i].mins.data(),
                                       work[i].mins.size(), pf.sketch,
                                       wkr->scratch, wkr->read_sketch);
              sketchCandidateWindow(cands[0], *wkr);
              const double best_est = sketch::estimateSimilarity(
                  wkr->read_sketch, wkr->window_sketch);
              ++local.reads_sketched;
              ++local.windows_sketched;
              if (best_est >= pf.min_best_similarity) {
                for (std::size_t c = 1; c < cands.size(); ++c) {
                  sketchCandidateWindow(cands[c], *wkr);
                  ++local.windows_sketched;
                  if (sketch::estimateSimilarity(wkr->read_sketch,
                                                 wkr->window_sketch) <
                      pf.keep_ratio * best_est) {
                    dropped[offset[i] + c] = 1;
                    ++local.candidates_filtered;
                  }
                }
              }
              seconds += t.seconds();
            }
            std::lock_guard<std::mutex> lock(sketch_mu_);
            prefilter_stats_.reads_sketched += local.reads_sketched;
            prefilter_stats_.windows_sketched += local.windows_sketched;
            prefilter_stats_.candidates_seen += local.candidates_seen;
            prefilter_stats_.candidates_filtered += local.candidates_filtered;
            prefilter_stats_.sequence_scans +=
                wkr->scratch.sequenceScans() - scans_before;
            prefilter_stats_.scratch_grow_events +=
                wkr->scratch.growEvents() - grow_before;
            times_.sketch_s += seconds;
            sketch_spares_.giveBack(std::move(wkr));
          });
    }

    // Phase 1b — distance-score every surviving non-best candidate under
    // its read's frozen cap, folding in chain order. A candidate provably
    // unable to change the emitted record aborts its window march early
    // and reports -1 (see Pick::scoreCap).
    std::vector<engine::DistanceTask> dist_tasks;
    std::vector<std::pair<std::size_t, std::size_t>> dist_cands;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      if (failed[i] != 0) continue;
      const auto& cands = work[i].cands;
      const int cap = picks[i].scoreCap();
      for (std::size_t c = 1; c < cands.size(); ++c) {
        if (dropped[offset[i] + c] != 0) continue;
        dist_tasks.push_back(
            {targetView(cands[c]), queryView(i, cands[c]), cap});
        dist_cands.emplace_back(i, c);
      }
    }
    const auto ds = engine_->distanceBatch(dist_tasks, &task_failed);
    for (std::size_t k = 0; k < dist_tasks.size(); ++k) {
      const auto [i, c] = dist_cands[k];
      if (task_failed[k] != 0) {
        markAlignmentFailure(i);
      } else if (ds[k] >= 0) {
        picks[i].update(static_cast<int>(c), ds[k]);
      }
    }
    times_.phase1_distance_s += stage_timer.seconds();
    cancel.check();

    // Phase 2 — a traceback alignment only for winners that are not the
    // already-aligned chain-best candidate.
    stage_timer.reset();
    std::vector<engine::AlignmentTask> winner_tasks;
    std::vector<std::size_t> winner_reads;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      if (failed[i] != 0 || picks[i].cand <= 0) continue;
      const auto& cand =
          work[i].cands[static_cast<std::size_t>(picks[i].cand)];
      winner_reads.push_back(i);
      winner_tasks.push_back({targetView(cand), queryView(i, cand)});
    }
    auto aligned = engine_->alignBatch(winner_tasks);
    for (std::size_t k = 0; k < winner_reads.size(); ++k) {
      winner[winner_reads[k]] = std::move(aligned[k]);
    }
    times_.traceback_s += stage_timer.seconds();
    cancel.check();

    // Stage 3 — serial emission in input order.
    stage_timer.reset();
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const auto& cands = work[i].cands;
      const std::size_t out_before = out.size();
      ++stats_.reads;
      tallyFailure(i);
      if (cands.empty()) {
        ++stats_.unmapped_reads;
        noteRead(i, out_before);
        continue;
      }
      stats_.candidates += cands.size();
      const Pick& p = picks[i];
      if (failed[i] != 0 || p.cand < 0) {
        builder.emitChainOnly(reads[i], cands[0]);
      } else if (winner[i].ok) {
        builder.emitAligned(
            reads[i], cands[static_cast<std::size_t>(p.cand)],
            std::move(winner[i].cigar),
            computeMapqFromDistances(p.d1, p.d2, cfg_.mapq_cap));
      } else {
        tallyAlignmentFailure(i);
        builder.emitChainOnly(reads[i],
                              cands[static_cast<std::size_t>(p.cand)]);
      }
      ++stats_.mapped_reads;
      noteRead(i, out_before);
    }
    times_.output_s += stage_timer.seconds();
    return out;
  }

  // ------------------------------------- secondary-emitting flow
  // Every record needs a CIGAR anyway, so a distance phase would be pure
  // overhead: flatten every read's candidates into one engine batch.
  // Targets are views into the genome, queries views into the read (or
  // its cached reverse complement): no window text is copied.
  stage_timer.reset();
  std::vector<engine::AlignmentTask> tasks;
  tasks.reserve(offset.back());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    for (const auto& c : work[i].cands) {
      tasks.push_back({targetView(c), queryView(i, c)});
    }
  }
  auto results = engine_->alignBatch(tasks);
  times_.traceback_s += stage_timer.seconds();
  cancel.check();

  // Fold results back per read, pick the primary, score MAPQ, and emit
  // (serial, so output order is input order).
  stage_timer.reset();
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const auto& read = reads[i];
    const auto& cands = work[i].cands;
    const std::size_t out_before = out.size();
    ++stats_.reads;
    tallyFailure(i);
    if (cands.empty()) {
      ++stats_.unmapped_reads;
      noteRead(i, out_before);
      continue;
    }
    stats_.candidates += cands.size();

    struct Scored {
      std::size_t cand;
      common::AlignmentResult* res;
      std::uint64_t matches;
      std::uint64_t edits;
    };
    std::vector<Scored> scored;
    for (std::size_t c = 0; c < cands.size(); ++c) {
      auto& res = results[offset[i] + c];
      if (!res.ok) continue;
      scored.push_back({c, &res, res.cigar.count(common::EditOp::Match),
                        res.cigar.editDistance()});
    }

    if (scored.empty()) {
      tallyAlignmentFailure(i);
      builder.emitChainOnly(read, cands[0]);
      ++stats_.mapped_reads;
      noteRead(i, out_before);
      continue;
    }

    // Primary = most matches; ties to fewer edits, then chain order.
    std::size_t best = 0;
    for (std::size_t k = 1; k < scored.size(); ++k) {
      if (scored[k].matches > scored[best].matches ||
          (scored[k].matches == scored[best].matches &&
           scored[k].edits < scored[best].edits)) {
        best = k;
      }
    }
    std::uint64_t second = 0;
    for (std::size_t k = 0; k < scored.size(); ++k) {
      if (k != best) second = std::max(second, scored[k].matches);
    }
    const int primary_mapq =
        computeMapq(scored[best].matches, second, cfg_.mapq_cap);

    // Each result's CIGAR moves into exactly one record.
    builder.emitAligned(read, cands[scored[best].cand],
                        std::move(scored[best].res->cigar), primary_mapq);
    for (std::size_t k = 0; k < scored.size(); ++k) {
      if (k != best) {
        builder.emitAligned(read, cands[scored[k].cand],
                            std::move(scored[k].res->cigar), 0);
      }
    }
    ++stats_.mapped_reads;
    noteRead(i, out_before);
  }
  times_.output_s += stage_timer.seconds();
  return out;
}

PipelineStats MappingPipeline::run(std::istream& reads_in, io::PafWriter& out,
                                   const std::string& input_path) {
  const PipelineStats before = stats_;
  const std::uint64_t task_failures_before = engine_->taskFailures();
  const std::size_t batch_reads = cfg_.batch_reads ? cfg_.batch_reads : 256;
  io::FastxPolicy policy;
  policy.on_bad_record = cfg_.on_bad_record;
  policy.path = input_path;
  io::FastxReader reader(reads_in, std::move(policy));

  // Report bookkeeping shared by the clean exit and the throw path: the
  // reader's skip count and the engine's task-failure delta are folded
  // in exactly once, whatever way this run ends.
  const auto finalizeReport = [&] {
    report_.skipped_bad_records += reader.skipped();
    report_.errors.add(common::ErrorCode::kMalformedInput, reader.skipped());
    report_.failed_tasks += engine_->taskFailures() - task_failures_before;
  };

  try {
    std::vector<io::FastxRecord> batch;
    std::size_t batch_bytes = 0;
    const auto dispatch = [&] {
      const auto records = mapBatch(batch);
      util::Timer write_timer;
      for (const auto& rec : records) out.write(rec);
      times_.output_s += write_timer.seconds();
      report_.records_out += records.size();
      batch.clear();
      batch_bytes = 0;
    };
    io::FastxRecord rec;
    while (reader.next(rec)) {
      ++report_.records_in;
      if (cfg_.max_read_len != 0 && rec.seq.size() > cfg_.max_read_len) {
        // Admission cap: the read never reaches the mapper; one counter
        // tick instead of an unbounded DP allocation.
        ++report_.rejected_reads;
        report_.errors.add(common::ErrorCode::kResourceLimit);
        continue;
      }
      batch_bytes += rec.seq.size();
      batch.push_back(std::move(rec));
      if (batch.size() >= batch_reads ||
          (cfg_.max_batch_bytes != 0 && batch_bytes >= cfg_.max_batch_bytes)) {
        dispatch();
      }
    }
    if (!batch.empty()) dispatch();
    util::Timer flush_timer;
    out.flush();
    times_.output_s += flush_timer.seconds();
  } catch (...) {
    finalizeReport();
    if (report_.first_error.ok()) {
      report_.first_error = common::Status::fromCurrentException();
      report_.errors.add(report_.first_error.code());
    }
    report_.print(std::cerr);
    throw;
  }
  finalizeReport();
  if (!report_.clean()) report_.print(std::cerr);
  return stats_ - before;
}

}  // namespace gx::pipeline
