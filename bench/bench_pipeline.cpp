// E6 — End-to-end pipeline (the paper's methodology, Section II) plus
// the tracked kernel, index and prefilter counters.
//
// Paper: "We simulate 500 PacBio reads from the human genome using
// PBSIM2, each of length 10kb. We map these reads to the human genome
// using minimap2 and obtain all chains (candidate locations) it
// generates using the -P flag, 138,929 locations in total."
//
// Default mode reproduces each stage with the in-repo substrates and
// reports per-stage timing plus candidate statistics (--scale=paper for
// the full size). --quick runs the fixed deterministic tracked workload
// instead and, with --json=FILE, writes BENCH_pipeline.json (see
// tools/run_bench.sh and README "Performance"): solver throughput with
// MemStats DP traffic and steady-state scratch allocations (0 per window
// once warm), the lane-parallel distance and align kernels against the
// scalar solver, index build and mmap load, sketch prefilter counts with
// steady-state scratch growth, and peak RSS. Each kernel row (aligner,
// distance and align kernels) is timed kKernelReps times after a warm
// pass: the plain keys keep the first timed run, and `_median` / `_min`
// keys sit beside them. Pipeline flow, stage and
// server timings are perfbench's; tools/perf_record.py records repeated
// runs of it in BENCH_perfbench.json.

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "genasmx/core/windowed.hpp"
#include "genasmx/engine/registry.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/mapper/index.hpp"
#include "genasmx/mapper/index_io.hpp"
#include "genasmx/pipeline/pipeline.hpp"
#include "genasmx/refmodel/reference.hpp"
#include "genasmx/simd/batch_solver.hpp"
#include "genasmx/util/stats.hpp"
#include "genasmx/util/thread_pool.hpp"
#include "genasmx/util/timer.hpp"

namespace {

using namespace gx;

/// Timed runs per kernel row: one 7-70 ms pass alone spreads widely on
/// a shared host.
constexpr int kKernelReps = 7;

/// One kernel row's seconds: the first timed run, the median, the min.
struct RepeatedTiming {
  double first = 0;
  double median = 0;
  double min = 0;
};

template <class Body>
RepeatedTiming timeRepeated(Body&& body) {
  std::array<double, kKernelReps> runs{};
  for (double& r : runs) {
    util::Timer t;
    body();
    r = t.seconds();
  }
  RepeatedTiming out;
  out.first = runs[0];
  std::sort(runs.begin(), runs.end());
  out.median = runs[kKernelReps / 2];
  out.min = runs[0];
  return out;
}

double perSecond(double count, double seconds) {
  return seconds > 0 ? count / seconds : 0;
}

int runTracked(bench::WorkloadConfig cfg) {
  // The tracked workload is fixed: deterministic seeds, repeat-rich
  // genome (so reads carry secondary candidates, as the paper's human-
  // genome workload does), sized to finish in seconds on one core.
  cfg.genome_len = 300'000;
  cfg.read_count = 100;
  cfg.read_length = 2'500;
  cfg.error_rate = 0.10;
  cfg.seed = 1234;
  const auto w = bench::buildWorkload(cfg);

  bench::printHeader("E6: tracked perf (bench_pipeline --quick)",
                     "perf trajectory baseline; see BENCH_pipeline.json");
  bench::printWorkload(cfg, w);

  // --- solver-level metrics over the workload's candidate pairs.
  core::WindowConfig wcfg;
  const int nw = bitvector::wordsNeeded(wcfg.window);
  if (nw != 1) {
    std::fprintf(stderr, "unexpected window width\n");
    return 1;
  }
  core::ImprovedWindowSolver<1> solver;
  core::WindowBuffers bufs;
  // Pass 1: warm the arenas. Pass 2: timed, uncounted. Pass 3: counted
  // (steady state — scratch_allocs must be 0).
  for (const auto& p : w.pairs) {
    (void)core::alignWindowed(solver, p.target, p.query, wcfg, bufs);
  }
  std::uint64_t total_cost = 0;
  const RepeatedTiming t_align = timeRepeated([&] {
    total_cost = 0;
    for (const auto& p : w.pairs) {
      total_cost += core::alignWindowed(solver, p.target, p.query, wcfg, bufs)
                        .cigar.editDistance();
    }
  });
  const double align_seconds = t_align.first;
  util::MemStats steady;
  for (const auto& p : w.pairs) {
    (void)core::alignWindowed(solver, p.target, p.query, wcfg, bufs,
                              util::CountingMemCounter(steady));
  }
  const double windows = static_cast<double>(steady.problems);
  const double windows_per_sec =
      align_seconds > 0 ? windows / align_seconds : 0;
  const double aligns_per_sec =
      align_seconds > 0 ? static_cast<double>(w.pairs.size()) / align_seconds
                        : 0;

  std::printf("solver: %zu pairs, %.0f windows in %.3fs "
              "(%.1f windows/s, %.1f alignments/s), cost=%llu\n",
              w.pairs.size(), windows, align_seconds, windows_per_sec,
              aligns_per_sec, static_cast<unsigned long long>(total_cost));
  std::printf("solver steady-state scratch allocations: %llu "
              "(per window: %.4f — must be 0)\n",
              static_cast<unsigned long long>(steady.scratch_allocs),
              windows > 0 ? static_cast<double>(steady.scratch_allocs) /
                                windows
                          : 0);

  // --- distance kernel: scalar solveDistance vs the lane-parallel
  // SimdBatchSolver over the same W=64 window problems (sliced from the
  // workload's candidate pairs along the chain diagonal). This is the
  // tracked batched-kernel stat: both paths must agree bit for bit, and
  // the speedup is the PR-5 acceptance number.
  const simd::IsaLevel isa = simd::activeIsa();
  std::vector<simd::WindowProblem> dwin;
  for (const auto& p : w.pairs) {
    const std::size_t tw = static_cast<std::size_t>(wcfg.textWindow());
    for (std::size_t off = 0;
         off + tw <= p.target.size() && off + 64 <= p.query.size();
         off += 64) {
      simd::WindowProblem wp;
      wp.text = std::string_view(p.target).substr(off, tw);
      wp.pattern = std::string_view(p.query).substr(off, 64);
      dwin.push_back(wp);
    }
  }
  // StartOnly with the always-solvable cap: the windowed drivers'
  // mid-window distance shape.
  genasm::WindowSpec dspec;
  std::vector<int> d_scalar(dwin.size(), -2);
  std::vector<int> d_batched(dwin.size(), -2);
  // Kernel-vs-kernel comparison: the scalar side runs over pre-reversed
  // inputs so the timed loop is solveDistance alone — the batch solver's
  // direct reversed indexing is part of its kernel, the scalar path's
  // reversal copies are not part of this stat.
  std::vector<std::string> d_rev;
  d_rev.reserve(2 * dwin.size());
  for (const auto& wp : dwin) {
    d_rev.push_back(common::reversed(wp.text));
    d_rev.push_back(common::reversed(wp.pattern));
  }
  for (std::size_t i = 0; i < dwin.size(); ++i) {
    d_scalar[i] = solver.solveDistance(d_rev[2 * i], d_rev[2 * i + 1], dspec);
  }
  const RepeatedTiming t_dscalar = timeRepeated([&] {
    for (std::size_t i = 0; i < dwin.size(); ++i) {
      d_scalar[i] =
          solver.solveDistance(d_rev[2 * i], d_rev[2 * i + 1], dspec);
    }
  });
  const double dscalar_seconds = t_dscalar.first;
  simd::SimdBatchSolver batch_solver(isa);
  batch_solver.solveDistanceBatch(genasm::Anchor::StartOnly, dwin.data(),
                                  dwin.size(), d_batched.data());
  const RepeatedTiming t_dbatch = timeRepeated([&] {
    batch_solver.solveDistanceBatch(genasm::Anchor::StartOnly, dwin.data(),
                                    dwin.size(), d_batched.data());
  });
  const double dbatch_seconds = t_dbatch.first;
  if (d_scalar != d_batched) {
    std::fprintf(stderr, "batched distance kernel diverged from scalar\n");
    return 1;
  }
  const double dscalar_wps =
      dscalar_seconds > 0 ? static_cast<double>(dwin.size()) / dscalar_seconds
                          : 0;
  const double dbatch_wps =
      dbatch_seconds > 0 ? static_cast<double>(dwin.size()) / dbatch_seconds
                         : 0;
  const double dspeedup = dscalar_wps > 0 ? dbatch_wps / dscalar_wps : 0;
  std::printf("distance kernel (W=64, %zu windows, isa=%s, %d lanes): "
              "scalar %.0f windows/s, batched %.0f windows/s (%.2fx)\n",
              dwin.size(), std::string(simd::isaName(isa)).c_str(),
              batch_solver.lanes(), dscalar_wps, dbatch_wps, dspeedup);

  // --- alignment kernel: scalar solve (fill + traceback) vs the
  // lane-parallel alignBatch over the same W=64 window problems. The
  // traceback (walk and CIGAR build) makes it heavier than the distance
  // kernel's fill alone, so this is tracked separately; both paths must
  // agree cigar for cigar.
  std::vector<genasm::WindowResult> a_scalar(dwin.size());
  std::vector<genasm::WindowResult> a_batched(dwin.size());
  for (std::size_t i = 0; i < dwin.size(); ++i) {
    a_scalar[i] = solver.solve(d_rev[2 * i], d_rev[2 * i + 1], dspec);
  }
  const RepeatedTiming t_ascalar = timeRepeated([&] {
    for (std::size_t i = 0; i < dwin.size(); ++i) {
      a_scalar[i] = solver.solve(d_rev[2 * i], d_rev[2 * i + 1], dspec);
    }
  });
  const double ascalar_seconds = t_ascalar.first;
  simd::SimdBatchSolver align_solver(isa);
  align_solver.alignBatch(genasm::Anchor::StartOnly, dwin.data(), dwin.size(),
                          a_batched.data());
  align_solver.resetStats();
  align_solver.alignBatch(genasm::Anchor::StartOnly, dwin.data(), dwin.size(),
                          a_batched.data());
  // One batch's occupancy and level counts, before the timed repeats.
  const simd::BatchStats a_stats = align_solver.stats();
  const RepeatedTiming t_abatch = timeRepeated([&] {
    align_solver.alignBatch(genasm::Anchor::StartOnly, dwin.data(),
                            dwin.size(), a_batched.data());
  });
  const double abatch_seconds = t_abatch.first;
  for (std::size_t i = 0; i < dwin.size(); ++i) {
    if (a_scalar[i].ok != a_batched[i].ok ||
        a_scalar[i].distance != a_batched[i].distance ||
        !(a_scalar[i].cigar == a_batched[i].cigar)) {
      std::fprintf(stderr, "batched align kernel diverged from scalar\n");
      return 1;
    }
  }
  // Padding the shape sort saves: one pass with sorting off gives the
  // pre-sort packed-word volume on the identical batch.
  simd::SimdBatchSolver align_unsorted(isa);
  align_unsorted.setShapeSort(false);
  align_unsorted.alignBatch(genasm::Anchor::StartOnly, dwin.data(),
                            dwin.size(), a_batched.data());
  const simd::BatchStats u_stats = align_unsorted.stats();
  const double ascalar_wps =
      ascalar_seconds > 0 ? static_cast<double>(dwin.size()) / ascalar_seconds
                          : 0;
  const double abatch_wps =
      abatch_seconds > 0 ? static_cast<double>(dwin.size()) / abatch_seconds
                         : 0;
  const double aspeedup = ascalar_wps > 0 ? abatch_wps / ascalar_wps : 0;
  const double occupancy =
      a_stats.lane_slots > 0 ? static_cast<double>(a_stats.lanes_filled) /
                                   static_cast<double>(a_stats.lane_slots)
                             : 0;
  const double pack_sorted =
      a_stats.packed_words > 0 ? static_cast<double>(a_stats.useful_words) /
                                     static_cast<double>(a_stats.packed_words)
                               : 0;
  const double pack_unsorted =
      u_stats.packed_words > 0 ? static_cast<double>(u_stats.useful_words) /
                                     static_cast<double>(u_stats.packed_words)
                               : 0;
  // Level divergence: a group runs until its slowest lane finishes.
  const double level_eff =
      a_stats.lane_levels_issued > 0
          ? static_cast<double>(a_stats.lane_levels_useful) /
                static_cast<double>(a_stats.lane_levels_issued)
          : 0;
  std::printf("align kernel (W=64, %zu windows, isa=%s, %d lanes): "
              "scalar %.0f windows/s, batched %.0f windows/s (%.2fx)\n",
              dwin.size(), std::string(simd::isaName(isa)).c_str(),
              align_solver.lanes(), ascalar_wps, abatch_wps, aspeedup);
  std::printf("  lane occupancy %.4f (%llu/%llu), packing efficiency "
              "%.4f sorted vs %.4f unsorted, level efficiency %.4f\n",
              occupancy,
              static_cast<unsigned long long>(a_stats.lanes_filled),
              static_cast<unsigned long long>(a_stats.lane_slots),
              pack_sorted, pack_unsorted, level_eff);

  // --- batched windowed march: steady-state allocation check over the
  // workload's full pairs (the path pipeline phase 2 runs). Once the
  // lane arenas and march scratch are warm, re-running the identical
  // request set must grow nothing — the batched twin of the scalar
  // steady_scratch_allocs figure above.
  std::vector<core::BatchedAlignRequest> march_reqs;
  march_reqs.reserve(w.pairs.size());
  for (const auto& p : w.pairs) march_reqs.push_back({p.target, p.query});
  std::vector<common::AlignmentResult> march_res(march_reqs.size());
  core::WindowedBatchScratch march_scratch;
  core::alignWindowedBatch(align_solver, wcfg, march_reqs.data(),
                           march_reqs.size(), march_res.data(),
                           march_scratch);
  const std::uint64_t march_solver_warm = align_solver.scratchAllocs();
  const std::uint64_t march_scratch_warm = march_scratch.allocs();
  const simd::BatchStats march_stats_warm = align_solver.stats();
  core::alignWindowedBatch(align_solver, wcfg, march_reqs.data(),
                           march_reqs.size(), march_res.data(),
                           march_scratch);
  const std::uint64_t march_steady_allocs =
      (align_solver.scratchAllocs() - march_solver_warm) +
      (march_scratch.allocs() - march_scratch_warm);
  // Level divergence inside the march, whose windows carry the previous
  // window's d_min as the packing hint (the kernel row's windows carry
  // none).
  const std::uint64_t march_levels_issued =
      align_solver.stats().lane_levels_issued -
      march_stats_warm.lane_levels_issued;
  const std::uint64_t march_levels_useful =
      align_solver.stats().lane_levels_useful -
      march_stats_warm.lane_levels_useful;
  const double march_level_eff =
      march_levels_issued > 0
          ? static_cast<double>(march_levels_useful) /
                static_cast<double>(march_levels_issued)
          : 0;
  std::printf("  batched march steady-state scratch allocations: %llu "
              "(per window: %.4f — must be 0)\n",
              static_cast<unsigned long long>(march_steady_allocs),
              windows > 0
                  ? static_cast<double>(march_steady_allocs) / windows
                  : 0);
  std::printf("  batched march level efficiency %.4f (%llu/%llu)\n",
              march_level_eff,
              static_cast<unsigned long long>(march_levels_useful),
              static_cast<unsigned long long>(march_levels_issued));

  // --- index build: serial vs per-contig-parallel over a contig table
  // (the tracked genome sliced into 8 contigs, the multi-contig shape
  // real references have).
  refmodel::Reference bench_ref;
  constexpr std::size_t kContigs = 8;
  const std::size_t slice = w.genome.size() / kContigs;
  for (std::size_t c = 0; c < kContigs; ++c) {
    const std::size_t begin = c * slice;
    const std::size_t len =
        c + 1 == kContigs ? w.genome.size() - begin : slice;
    std::string name = "bench_ctg_";
    name += std::to_string(c);
    bench_ref.addContig(std::move(name),
                        std::string_view(w.genome).substr(begin, len));
  }
  mapper::MinimizerIndex serial_index, parallel_index;
  util::Timer t_serial;
  serial_index.build(bench_ref, 15, 10, 64, nullptr);
  const double index_serial_seconds = t_serial.seconds();
  util::ThreadPool index_pool;  // hardware concurrency
  util::Timer t_parallel;
  parallel_index.build(bench_ref, 15, 10, 64, &index_pool);
  const double index_parallel_seconds = t_parallel.seconds();
  if (!(serial_index == parallel_index)) {
    std::fprintf(stderr, "parallel index build diverged from serial\n");
    return 1;
  }
  const double index_speedup =
      index_parallel_seconds > 0 ? index_serial_seconds / index_parallel_seconds
                                 : 0;
  std::printf("index build (%zu contigs, %zu minimizers): serial %.3fs, "
              "parallel %.3fs on %zu threads (%.2fx)\n",
              kContigs, serial_index.size(), index_serial_seconds,
              index_parallel_seconds, index_pool.size(), index_speedup);

  // --- index build, single-contig shape: the whole tracked genome as
  // one contig, split into overlapping extraction blocks so even a
  // single chromosome fans out (bit-identical to the monolithic build).
  refmodel::Reference single_ref;
  single_ref.addContig("bench_chr", w.genome);
  constexpr std::size_t kBenchBlockBp = 1u << 16;
  mapper::MinimizerIndex sc_mono, sc_serial, sc_parallel;
  sc_mono.build(single_ref, 15, 10, 64, nullptr, /*block_bp=*/0);
  util::Timer t_sc_serial;
  sc_serial.build(single_ref, 15, 10, 64, nullptr, kBenchBlockBp);
  const double sc_serial_seconds = t_sc_serial.seconds();
  util::Timer t_sc_parallel;
  sc_parallel.build(single_ref, 15, 10, 64, &index_pool, kBenchBlockBp);
  const double sc_parallel_seconds = t_sc_parallel.seconds();
  if (!(sc_mono == sc_serial) || !(sc_serial == sc_parallel)) {
    std::fprintf(stderr, "block-split index build diverged\n");
    return 1;
  }
  const double sc_speedup =
      sc_parallel_seconds > 0 ? sc_serial_seconds / sc_parallel_seconds : 0;
  const std::size_t sc_blocks =
      (w.genome.size() + kBenchBlockBp - 1) / kBenchBlockBp;
  std::printf("index build (1 contig, %zu blocks): serial %.3fs, parallel "
              "%.3fs on %zu threads (%.2fx)\n",
              sc_blocks, sc_serial_seconds, sc_parallel_seconds,
              index_pool.size(), sc_speedup);

  // --- index serve-from-disk: write the 8-contig tracked index as a
  // genasmx_index file, reopen it through MappedIndex, and compare the
  // mmap cold start against rebuilding from scratch — the tracked
  // number behind `genasmx_map --index=`. The loaded arrays must match
  // the in-memory index verbatim (the byte-identical-PAF substrate).
  const std::string index_path = "bench_pipeline.tmp.gxi";
  util::Timer t_iwrite;
  mapper::writeIndexFile(index_path, serial_index, bench_ref);
  const double index_write_seconds = t_iwrite.seconds();
  util::Timer t_iload;
  const mapper::MappedIndex mapped(index_path);
  const double index_load_seconds = t_iload.seconds();
  const std::size_t index_file_bytes = mapped.fileBytes();
  const mapper::IndexView& mv = mapped.view();
  bool same = mv.size() == serial_index.size() &&
              mv.k() == serial_index.k() && mv.w() == serial_index.w() &&
              mapped.reference().size() == bench_ref.size();
  for (std::size_t i = 0; same && i < mv.size(); ++i) {
    same = mv.keysData()[i] == serial_index.keys()[i] &&
           mv.valuesData()[i] == serial_index.values()[i];
  }
  std::remove(index_path.c_str());  // the mapping outlives the unlink
  if (!same) {
    std::fprintf(stderr, "mmap'd index diverged from the in-memory build\n");
    return 1;
  }
  const double index_load_speedup =
      index_load_seconds > 0 ? index_serial_seconds / index_load_seconds : 0;
  std::printf("index on disk (%zu bytes): write %.3fs, verified mmap load "
              "%.4fs vs %.3fs rebuild (%.0fx)\n",
              index_file_bytes, index_write_seconds, index_load_seconds,
              index_serial_seconds, index_load_speedup);

  // --- candidate prefilter counts: one untimed primary-only run with the
  // sketch prefilter on, a warm batch and then the counted batch. Flow
  // and stage timings are perfbench's (BENCH_perfbench.json).
  pipeline::PipelineConfig pcfg;
  pcfg.engine.backend = "windowed-improved";
  pcfg.engine.threads = 1;
  pcfg.emit_secondary = false;
  pcfg.prefilter.mode = pipeline::PrefilterMode::kSketch;
  pipeline::MappingPipeline pipe(
      refmodel::Reference("bench_ref", std::string(w.genome)), pcfg);
  std::vector<io::FastxRecord> reads;  // FASTA-shaped: no qualities
  for (const auto& r : w.reads) reads.push_back({r.name, "", r.seq, ""});
  (void)pipe.mapBatch(reads);
  const pipeline::PrefilterStats warm_pf = pipe.prefilterStats();
  const std::uint64_t warm_seed_grow = pipe.seedGrowEvents();
  (void)pipe.mapBatch(reads);
  const pipeline::PrefilterStats& pf = pipe.prefilterStats();
  const std::uint64_t pf_seen = pf.candidates_seen - warm_pf.candidates_seen;
  const std::uint64_t pf_filtered =
      pf.candidates_filtered - warm_pf.candidates_filtered;
  const double pf_filtered_fraction =
      pf_seen > 0
          ? static_cast<double>(pf_filtered) / static_cast<double>(pf_seen)
          : 0;
  // Scratch growth in the second (steady-state) batch: the prefilter and
  // seeding twins of steady_scratch_allocs_per_window.
  const std::uint64_t pf_steady_grow =
      pf.scratch_grow_events - warm_pf.scratch_grow_events;
  const std::uint64_t seed_steady_grow = pipe.seedGrowEvents() - warm_seed_grow;
  std::printf("\nprefilter (primary-only, 1 thread): %llu/%llu non-best "
              "candidates dropped (%.1f%%); steady grow events: sketch %llu, "
              "seed/chain %llu (both must be 0)\n",
              static_cast<unsigned long long>(pf_filtered),
              static_cast<unsigned long long>(pf_seen),
              100.0 * pf_filtered_fraction,
              static_cast<unsigned long long>(pf_steady_grow),
              static_cast<unsigned long long>(seed_steady_grow));
  std::printf("peak RSS: %.1f MiB\n",
              static_cast<double>(bench::peakRssBytes()) / (1024.0 * 1024.0));

  if (!cfg.json_path.empty()) {
    const auto n_dwin = static_cast<double>(dwin.size());
    bench::JsonObject workload;
    workload.num("genome_bp", static_cast<std::uint64_t>(cfg.genome_len))
        .num("reads", static_cast<std::uint64_t>(cfg.read_count))
        .num("read_length_bp", static_cast<std::uint64_t>(cfg.read_length))
        .num("error_rate", cfg.error_rate)
        .num("seed", cfg.seed)
        .num("candidates", static_cast<std::uint64_t>(w.total_candidates))
        .num("pairs", static_cast<std::uint64_t>(w.pairs.size()));
    bench::JsonObject aligner;
    aligner.num("windows", static_cast<std::uint64_t>(steady.problems))
        .num("seconds", align_seconds)
        .num("seconds_median", t_align.median)
        .num("seconds_min", t_align.min)
        .num("windows_per_sec", windows_per_sec)
        .num("windows_per_sec_median", perSecond(windows, t_align.median))
        .num("alignments_per_sec", aligns_per_sec)
        .num("total_cost", total_cost)
        .num("dp_loads", steady.dp_loads)
        .num("dp_stores", steady.dp_stores)
        .num("bytes_peak", steady.bytes_peak)
        .num("steady_scratch_allocs", steady.scratch_allocs)
        .num("steady_scratch_allocs_per_window",
             windows > 0
                 ? static_cast<double>(steady.scratch_allocs) / windows
                 : 0.0);
    bench::JsonObject index_build;
    index_build.num("contigs", static_cast<std::uint64_t>(kContigs))
        .num("minimizers", static_cast<std::uint64_t>(serial_index.size()))
        .num("serial_seconds", index_serial_seconds)
        .num("parallel_seconds", index_parallel_seconds)
        .num("pool_threads", static_cast<std::uint64_t>(index_pool.size()))
        .num("speedup_parallel_vs_serial", index_speedup);
    bench::JsonObject index_build_single_contig;
    index_build_single_contig
        .num("blocks", static_cast<std::uint64_t>(sc_blocks))
        .num("block_bp", static_cast<std::uint64_t>(kBenchBlockBp))
        .num("serial_seconds", sc_serial_seconds)
        .num("parallel_seconds", sc_parallel_seconds)
        .num("pool_threads", static_cast<std::uint64_t>(index_pool.size()))
        .num("speedup_parallel_vs_serial", sc_speedup);
    bench::JsonObject index_load;
    index_load
        .num("file_bytes", static_cast<std::uint64_t>(index_file_bytes))
        .num("write_seconds", index_write_seconds)
        .num("load_seconds", index_load_seconds)
        .num("build_seconds", index_serial_seconds)
        .num("speedup_load_vs_build", index_load_speedup);
    bench::JsonObject distance_kernel;
    distance_kernel.num("windows", static_cast<std::uint64_t>(dwin.size()))
        .num("window_bp", 64)
        .str("isa", std::string(simd::isaName(isa)))
        .num("lanes", batch_solver.lanes())
        .num("scalar_seconds", dscalar_seconds)
        .num("scalar_seconds_median", t_dscalar.median)
        .num("scalar_seconds_min", t_dscalar.min)
        .num("batched_seconds", dbatch_seconds)
        .num("batched_seconds_median", t_dbatch.median)
        .num("batched_seconds_min", t_dbatch.min)
        .num("distance_scalar_windows_per_sec", dscalar_wps)
        .num("distance_scalar_windows_per_sec_median",
             perSecond(n_dwin, t_dscalar.median))
        .num("distance_batched_windows_per_sec", dbatch_wps)
        .num("distance_batched_windows_per_sec_median",
             perSecond(n_dwin, t_dbatch.median))
        .num("speedup_batched_vs_scalar", dspeedup)
        .num("speedup_batched_vs_scalar_median",
             t_dbatch.median > 0 ? t_dscalar.median / t_dbatch.median : 0);
    bench::JsonObject align_kernel;
    align_kernel.num("windows", static_cast<std::uint64_t>(dwin.size()))
        .num("window_bp", 64)
        .str("isa", std::string(simd::isaName(isa)))
        .num("lanes", align_solver.lanes())
        .num("scalar_seconds", ascalar_seconds)
        .num("scalar_seconds_median", t_ascalar.median)
        .num("scalar_seconds_min", t_ascalar.min)
        .num("batched_seconds", abatch_seconds)
        .num("batched_seconds_median", t_abatch.median)
        .num("batched_seconds_min", t_abatch.min)
        .num("align_scalar_windows_per_sec", ascalar_wps)
        .num("align_scalar_windows_per_sec_median",
             perSecond(n_dwin, t_ascalar.median))
        .num("align_batched_windows_per_sec", abatch_wps)
        .num("align_batched_windows_per_sec_median",
             perSecond(n_dwin, t_abatch.median))
        .num("speedup_batched_vs_scalar", aspeedup)
        .num("speedup_batched_vs_scalar_median",
             t_abatch.median > 0 ? t_ascalar.median / t_abatch.median : 0)
        .num("lanes_total", a_stats.lane_slots)
        .num("lanes_filled", a_stats.lanes_filled)
        .num("lane_occupancy", occupancy)
        .num("packing_efficiency_sorted", pack_sorted)
        .num("packing_efficiency_unsorted", pack_unsorted)
        .num("lane_levels_issued", a_stats.lane_levels_issued)
        .num("lane_levels_useful", a_stats.lane_levels_useful)
        .num("level_efficiency", level_eff)
        .num("march_level_efficiency", march_level_eff)
        .num("march_steady_scratch_allocs", march_steady_allocs)
        .num("march_steady_scratch_allocs_per_window",
             windows > 0
                 ? static_cast<double>(march_steady_allocs) / windows
                 : 0.0);
    bench::JsonObject candidate_prefilter;
    candidate_prefilter.num("candidates_seen", pf_seen)
        .num("candidates_filtered", pf_filtered)
        .num("filtered_fraction", pf_filtered_fraction)
        .num("reads_sketched", pf.reads_sketched - warm_pf.reads_sketched)
        .num("windows_sketched", pf.windows_sketched - warm_pf.windows_sketched)
        .num("steady_grow_events", pf_steady_grow);
    bench::JsonObject root;
    root.str("bench", "pipeline")
        .str("mode", "quick")
        .str("backend", "windowed-improved")
        .num("threads", 1)
        .str("simd_isa", std::string(simd::isaName(isa)))
        .obj("workload", workload)
        .obj("aligner", aligner)
        .obj("distance_kernel", distance_kernel)
        .obj("align_kernel", align_kernel)
        .obj("index_build", index_build)
        .obj("index_build_single_contig", index_build_single_contig)
        .obj("index_load", index_load)
        .obj("candidate_prefilter", candidate_prefilter)
        .num("seed_steady_grow_events", seed_steady_grow)
        .num("peak_rss_bytes", bench::peakRssBytes());
    if (!root.writeFile(cfg.json_path)) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   cfg.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", cfg.json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto cfg = bench::WorkloadConfig::fromArgs(argc, argv);
  if (cfg.quick) return runTracked(cfg);
  if (!cfg.json_path.empty()) {
    // The tracked JSON is only meaningful on the fixed quick workload;
    // refusing beats silently recording numbers for a different scale.
    std::fprintf(stderr,
                 "error: --json requires --quick (the tracked workload)\n");
    return 2;
  }

  bench::printHeader("E6: end-to-end pipeline (bench_pipeline)",
                     "500 x 10kb PBSIM2 reads -> minimap2 -P chains "
                     "(138,929 candidates) -> alignment");

  util::Timer timer;
  readsim::GenomeConfig gcfg;
  gcfg.length = cfg.genome_len;
  gcfg.seed = cfg.seed;
  const auto genome = readsim::generateGenome(gcfg);
  const double t_genome = timer.seconds();

  timer.reset();
  auto rcfg = readsim::ReadSimConfig::pacbioClr(cfg.read_count, cfg.read_length);
  rcfg.seed = cfg.seed + 1;
  const auto reads = readsim::simulateReads(genome, rcfg);
  const double t_reads = timer.seconds();

  timer.reset();
  mapper::Mapper mapper{std::string(genome)};
  const double t_index = timer.seconds();

  timer.reset();
  std::size_t total_candidates = 0;
  util::Summary cands_per_read;
  std::vector<mapper::AlignmentPair> pairs;
  for (const auto& r : reads) {
    const auto cands = mapper.map(r.seq);
    total_candidates += cands.size();
    cands_per_read.add(static_cast<double>(cands.size()));
    auto rp = mapper::buildAlignmentPairs(mapper, r.seq,
                                          cfg.max_candidates_per_read);
    for (auto& p : rp) pairs.push_back(std::move(p));
  }
  const double t_map = timer.seconds();

  timer.reset();
  std::uint64_t total_cost = 0;
  util::Summary cost_per_pair;
  const auto aligner = engine::makeAligner("windowed-improved");
  for (const auto& p : pairs) {
    const auto res = aligner->align(p.target, p.query);
    total_cost += static_cast<std::uint64_t>(res.edit_distance);
    cost_per_pair.add(res.edit_distance);
  }
  const double t_align = timer.seconds();

  std::printf("stage timings:\n");
  std::printf("  genome generation (%zu bp)     %8.2fs\n", genome.size(),
              t_genome);
  std::printf("  read simulation  (%zu reads)    %8.2fs\n", reads.size(),
              t_reads);
  std::printf("  index build      (k=15, w=10)  %8.2fs\n", t_index);
  std::printf("  mapping/chaining (-P, all)     %8.2fs\n", t_map);
  std::printf("  alignment (improved GenASM)    %8.2fs\n", t_align);
  std::printf("\ncandidates: total=%zu  per-read %s\n", total_candidates,
              cands_per_read.str().c_str());
  std::printf("aligned pairs: %zu (capped at %zu per read)\n", pairs.size(),
              cfg.max_candidates_per_read);
  std::printf("alignment cost per pair: %s\n", cost_per_pair.str().c_str());
  std::printf("alignment throughput: %.1f pairs/s (single thread)\n",
              static_cast<double>(pairs.size()) / t_align);
  std::printf(
      "\nPaper reference point: 500 reads x 10 kb -> 138,929 candidates "
      "(~278/read with -P on the human genome).\nSynthetic genomes are far "
      "less repetitive than the human genome, so per-read candidate counts "
      "are lower here; raise GenomeConfig::repeat_fraction to push the "
      "multiplicity up.\n");
  return 0;
}
