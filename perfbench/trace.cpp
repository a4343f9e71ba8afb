// perfbench trace — the traced in-process run: per-layer numbers measured
// from outside, by timing the harness's own calls into each module's
// public functions and recording a span at each call boundary.
//
// Layers and the calls that measure them:
//   mapper    MinimizerIndex::build, MappedIndex open, Mapper::map
//   io        FastxReader::nextBatch, PafWriter::write
//   pipeline  MappingPipeline::mapBatch + stageTimes()/stats() deltas
//   engine    AlignmentEngine::alignBatch / distanceBatch over the
//             pipeline's task shapes (chain-best aligned first, the other
//             candidates distance-scored under a 2*d1 cap; the all-chains
//             flow aligns every candidate), on a one-thread engine
//   core      distanceWindowedBatch / alignWindowedBatch on the same tasks
//             (one thread), plus alignWindowed{Improved,Baseline} with
//             CountingMemCounter on a fixed sample for the DP counts
//   simd      SimdBatchSolver::solveDistanceBatch / solveWindowBatch /
//             alignBatch on W=64 windows placed along the aligned
//             candidates' paths
//
// Spans nest so that a span's self time (its duration minus its
// children) belongs to its own layer. Inside each mapBatch span the
// stage-time deltas become derived children named by the layer that does
// the work: mapper.seed_chain, engine.phase1, engine.traceback and
// pipeline.output. The replay clocks each layer's call on the same tasks;
// the calls below the engine run as probe.* spans (no layer), and their
// durations nest as derived core.* children of the engine spans and
// simd.* children of those. The mapBatch engine stages are split the same
// way, by the shares the replay measured.
//
// The mapBatch loop runs untraced and traced, interleaved U T T U, so the
// tracing overhead is measured against the same work in the same process.
// Every pass must emit the same PAF bytes.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "genasmx/common/sequence.hpp"
#include "genasmx/core/windowed.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/io/paf.hpp"
#include "genasmx/mapper/index.hpp"
#include "genasmx/mapper/index_io.hpp"
#include "genasmx/pipeline/pipeline.hpp"
#include "genasmx/refmodel/reference.hpp"
#include "genasmx/simd/batch_solver.hpp"
#include "genasmx/util/mem_stats.hpp"
#include "genasmx/util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace gx;

double secondsOf(const Spans& spans, int idx) {
  if (idx < 0) return 0.0;
  const Spans::Span& s = spans.all()[static_cast<std::size_t>(idx)];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
}

/// A derived child of `parent` that starts with it and lasts `seconds`,
/// clipped to the parent.
int nestDerived(Spans& spans, const char* name, int parent, double seconds) {
  if (parent < 0) return -1;
  const Spans::Span p = spans.all()[static_cast<std::size_t>(parent)];
  const std::int64_t ns = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(seconds * 1e9), 0, p.end_ns - p.start_ns);
  return spans.add(name, p.start_ns, p.start_ns + ns, parent, p.id, true);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

struct PassResult {
  double seconds = 0;
  double map_batch_s = 0;
  double paf_write_s = 0;
  pipeline::StageTimes stages{};
  pipeline::PipelineStats stats{};
  std::string paf;
};

/// One pass of the mapBatch loop over every batch; spans only if traced.
PassResult mapPass(pipeline::MappingPipeline& pipe,
                   const std::vector<std::vector<io::FastxRecord>>& batches,
                   Spans& spans, bool traced, int parent) {
  Spans off(false);
  Spans& sp = traced ? spans : off;
  PassResult r;
  const pipeline::StageTimes st0 = pipe.stageTimes();
  const pipeline::PipelineStats ps0 = pipe.stats();
  std::ostringstream sink;
  const std::int64_t t0 = nowNs();
  {
    io::PafWriter writer(sink);
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const auto id = static_cast<std::int64_t>(b);
      const pipeline::StageTimes before = pipe.stageTimes();
      const int mb = sp.begin("pipeline.map_batch", parent, id);
      const auto records = pipe.mapBatch(batches[b]);
      sp.end(mb);
      if (traced) {
        // Derived children, named by the layer that does the work:
        // mapBatch runs seed/chain, phase 1, traceback, output in that
        // order; lay the reported durations end to end.
        const pipeline::StageTimes d = pipe.stageTimes() - before;
        std::int64_t at = sp.all()[static_cast<std::size_t>(mb)].start_ns;
        const std::pair<const char*, double> stages[] = {
            {"mapper.seed_chain", d.seed_chain_s},
            {"engine.phase1", d.phase1_distance_s},
            {"engine.traceback", d.traceback_s},
            {"pipeline.output", d.output_s}};
        for (const auto& [name, s] : stages) {
          const auto ns = static_cast<std::int64_t>(s * 1e9);
          sp.add(name, at, at + ns, mb, id, true);
          at += ns;
        }
        r.map_batch_s += secondsOf(sp, mb);
      }
      const int pw = sp.begin("io.paf_write", parent, id);
      for (const auto& rec : records) writer.write(rec);
      sp.end(pw);
      r.paf_write_s += secondsOf(sp, pw);
    }
    writer.close();
  }
  r.seconds = static_cast<double>(nowNs() - t0) / 1e9;
  r.stages = pipe.stageTimes() - st0;
  const pipeline::PipelineStats& ps = pipe.stats();
  r.stats.reads = ps.reads - ps0.reads;
  r.stats.candidates = ps.candidates - ps0.candidates;
  r.stats.records = ps.records - ps0.records;
  r.paf = sink.str();
  return r;
}

/// W=64 windows (96 text characters, 40 committed ops) placed along a
/// task's alignment path, where the windowed march places them: one at
/// every 40th query character, on the target position the path pairs
/// with it.
void tileWindows(std::string_view target, std::string_view query,
                 const common::Cigar& path, std::vector<simd::WindowProblem>& out) {
  constexpr std::size_t kW = 64, kText = 96, kStep = 40;
  std::size_t t = 0, q = 0, next = 0;
  for (const common::CigarUnit& u : path.units()) {
    for (std::uint32_t k = 0; k < u.len; ++k) {
      if (q == next && q + kW <= query.size() && t < target.size()) {
        out.push_back({target.substr(t, kText), query.substr(q, kW), -1,
                       static_cast<int>(kStep)});
        next += kStep;
      }
      t += common::opConsumesTarget(u.op) ? 1 : 0;
      q += common::opConsumesQuery(u.op) ? 1 : 0;
    }
  }
}

constexpr std::size_t kThreads = 2;        // engine threads, as the tools run
constexpr std::size_t kReplayReads = 256;  // leading reads replayed by layer
constexpr std::size_t kCountTasks = 4;     // chain-best tasks counted by MemStats

}  // namespace

int runTrace(const Args& args) {
  const bool primary = args.num("primary") != 0;
  const auto max_reads = static_cast<std::int64_t>(args.num("max-reads", 1e9));
  Spans spans(true);
  Json m;  // per-layer metrics
  std::string problems;
  const auto require = [&](bool ok, const std::string& what) {
    if (!ok && problems.empty()) problems = what;
  };
  const int root = spans.begin("run", -1, 0);

  // ---- mapper: index build from the FASTA, index open from the file.
  {
    const refmodel::Reference ref =
        refmodel::referenceFromFastx(io::readFastxFile(args.str("fasta")));
    util::ThreadPool pool(kThreads);
    std::vector<double> build_s;
    for (int rep = 0; rep < 3; ++rep) {
      mapper::MinimizerIndex index;
      const int s = spans.begin("mapper.index_build", root, rep);
      index.build(ref, 15, 10, 64, &pool);
      spans.end(s);
      build_s.push_back(secondsOf(spans, s));
    }
    m.num("mapper.index_build_s", median(build_s));
  }
  std::vector<double> load_s;
  for (int rep = 0; rep < 3; ++rep) {
    const int s = spans.begin("mapper.index_load", root, rep);
    const mapper::MappedIndex probe(args.str("index"));
    spans.end(s);
    load_s.push_back(secondsOf(spans, s));
  }
  m.num("mapper.index_load_s", median(load_s));
  const mapper::MappedIndex index(args.str("index"));

  // ---- io: parse the reads in pipeline-sized batches.
  std::vector<std::vector<io::FastxRecord>> batches;
  double parse_s = 0;
  std::uint64_t read_bytes = 0;
  {
    std::ifstream in(args.str("reads"), std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + args.str("reads"));
    io::FastxReader reader(in);
    for (std::int64_t b = 0; b * 256 < max_reads; ++b) {
      const int s = spans.begin("io.parse", root, b);
      auto batch = reader.nextBatch(256);
      spans.end(s);
      parse_s += secondsOf(spans, s);
      if (batch.empty()) break;
      batches.push_back(std::move(batch));
    }
    read_bytes = reader.byteOffset();
  }
  m.num("io.parse_s", parse_s)
      .num("io.parse_mb_per_s", static_cast<double>(read_bytes) / 1e6 / parse_s);

  // ---- pipeline: mapBatch passes, untraced and traced (U T T U).
  pipeline::PipelineConfig cfg;  // genasmx_map's defaults
  cfg.engine.backend = "windowed-improved";
  cfg.engine.threads = kThreads;
  cfg.engine.aligner.ksw.band = 751;
  cfg.max_candidates = 4;
  cfg.batch_reads = 256;
  cfg.emit_secondary = !primary;
  pipeline::MappingPipeline pipe(index.view(), cfg);
  (void)pipe.mapBatch(batches.front());  // warm the aligner scratch
  // Only the last traced pass keeps its spans; the first pays the same
  // recording cost into a throwaway recorder.
  std::vector<PassResult> untraced, traced;
  for (const bool t : {false, true, true, false}) {
    Spans scratch_spans(true);
    Spans& sp = t && traced.empty() ? scratch_spans : spans;
    const int pass = sp.begin(t ? "pass.traced" : "pass.untraced", root, 0);
    (t ? traced : untraced).push_back(mapPass(pipe, batches, sp, t, pass));
    sp.end(pass);
  }
  for (const auto* passes : {&untraced, &traced}) {
    for (const PassResult& p : *passes) {
      require(p.paf == untraced.front().paf,
              "PAF differs between traced and untraced passes");
    }
  }
  const double u = median({untraced[0].seconds, untraced[1].seconds});
  const double t = median({traced[0].seconds, traced[1].seconds});
  const PassResult& last = traced.back();
  m.num("trace.untraced_pass_s", u)
      .num("trace.traced_pass_s", t)
      .num("trace.overhead_frac", t / u - 1.0)
      .num("pipeline.map_batch_s", last.map_batch_s)
      .num("pipeline.seed_chain_s", last.stages.seed_chain_s)
      .num("pipeline.phase1_s", last.stages.phase1_distance_s)
      .num("pipeline.traceback_s", last.stages.traceback_s)
      .num("pipeline.output_s", last.stages.output_s)
      .num("pipeline.candidates", static_cast<double>(last.stats.candidates))
      .num("pipeline.records", static_cast<double>(last.stats.records))
      .num("pipeline.records_per_candidate",
           static_cast<double>(last.stats.records) /
               static_cast<double>(last.stats.candidates))
      .num("io.paf_write_s", last.paf_write_s)
      .num("io.paf_bytes", static_cast<double>(last.paf.size()));
  if (!writeText(args.str("paf"), last.paf)) {
    throw std::runtime_error("cannot write " + args.str("paf"));
  }

  // ---- replay of the leading reads through mapper -> engine -> core -> simd,
  // every layer on one thread so a layer's call and the one below it
  // compare.
  std::vector<io::FastxRecord> reads;
  for (const auto& b : batches) {
    for (const auto& r : b) {
      if (reads.size() < kReplayReads) reads.push_back(r);
    }
  }
  const int replay = spans.begin("replay", root, 0);
  const mapper::Mapper& mp = pipe.mapper();
  const refmodel::Reference& ref = mp.reference();
  std::vector<std::vector<mapper::Candidate>> cands(reads.size());
  std::vector<std::string> oriented_fwd(reads.size()), oriented_rev(reads.size());
  std::uint64_t all_cands = 0, kept = 0, true_cands = 0;
  {
    const int s = spans.begin("mapper.seed_chain", replay, 0);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      cands[i] = mp.map(reads[i].seq);
    }
    spans.end(s);
    m.num("mapper.seed_chain_s", secondsOf(spans, s));
  }
  for (std::size_t i = 0; i < reads.size(); ++i) {
    all_cands += cands[i].size();
    if (cands[i].size() > cfg.max_candidates) cands[i].resize(cfg.max_candidates);
    oriented_fwd[i] = reads[i].seq;
    oriented_rev[i] = common::reverseComplement(reads[i].seq);
    const Truth truth = parseTruth(reads[i].name);
    for (const auto& c : cands[i]) {
      ++kept;
      if (truth.ok && ref.name(c.contig) == truth.contig &&
          c.ref_begin < truth.pos + reads[i].seq.size() && truth.pos < c.ref_end) {
        ++true_cands;
      }
    }
  }
  m.num("mapper.candidates_per_read",
        static_cast<double>(all_cands) / static_cast<double>(reads.size()))
      .num("mapper.true_candidate_ratio",
           kept == 0 ? 0.0 : static_cast<double>(true_cands) / static_cast<double>(kept));

  // Task shapes: chain-best first, then the other candidates.
  std::vector<engine::AlignmentTask> best_tasks, all_tasks;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    for (std::size_t c = 0; c < cands[i].size(); ++c) {
      const auto& cand = cands[i][c];
      const engine::AlignmentTask task{
          mp.candidateText(cand), cand.reverse ? oriented_rev[i] : oriented_fwd[i]};
      all_tasks.push_back(task);
      if (c == 0) best_tasks.push_back(task);
    }
  }
  const std::vector<engine::AlignmentTask>& align_tasks =
      primary ? best_tasks : all_tasks;
  engine::EngineConfig ecfg = cfg.engine;
  ecfg.threads = 1;
  engine::AlignmentEngine eng(ecfg);
  // Each replay call runs once untimed first, so every layer is timed on
  // warm scratch.
  (void)eng.alignBatch(align_tasks);
  const int engine_align = spans.begin("engine.align_batch", replay, 0);
  const std::vector<common::AlignmentResult> aligned = eng.alignBatch(align_tasks);
  spans.end(engine_align);
  m.num("engine.align_batch_s", secondsOf(spans, engine_align));
  // The chain-best result caps each read's other candidates at 2*d1.
  std::vector<int> cap(reads.size(), -1);
  {
    std::size_t k = 0;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      if (cands[i].empty()) continue;
      const auto& r = aligned[k];
      cap[i] = r.ok ? 2 * r.edit_distance : -1;
      k += primary ? 1 : cands[i].size();
    }
  }
  std::vector<engine::DistanceTask> dist_tasks;
  for (std::size_t i = 0, k = 0; i < reads.size(); ++i) {
    for (std::size_t c = 0; c < cands[i].size(); ++c, ++k) {
      if (c > 0) dist_tasks.push_back({all_tasks[k].target, all_tasks[k].query, cap[i]});
    }
  }
  (void)eng.distanceBatch(dist_tasks);
  const int engine_distance = spans.begin("engine.distance_batch", replay, 0);
  const std::vector<int> distances = eng.distanceBatch(dist_tasks);
  spans.end(engine_distance);
  m.num("engine.distance_batch_s", secondsOf(spans, engine_distance));
  // Failures over the mapBatch passes (the pipeline's engine) and the replay.
  const engine::AlignmentEngine& pipe_eng = pipe.engine();
  m.num("engine.tasks", static_cast<double>(align_tasks.size() + dist_tasks.size()))
      .num("engine.task_failures",
           static_cast<double>(pipe_eng.taskFailures() + eng.taskFailures()))
      .num("engine.batch_faults",
           static_cast<double>(pipe_eng.batchFaults() + eng.batchFaults()));

  // core: the same tasks through the batched marches on one thread.
  const core::WindowConfig wcfg = cfg.engine.aligner.window;
  simd::SimdBatchSolver march_solver;
  core::WindowedBatchScratch scratch;
  std::vector<core::BatchedDistanceRequest> dreq;
  for (const auto& d : dist_tasks) dreq.push_back({d.target, d.query, d.cap});
  std::vector<core::BatchedAlignRequest> areq;
  for (const auto& a : align_tasks) areq.push_back({a.target, a.query});
  std::vector<int> march_dist(dreq.size());
  std::vector<common::AlignmentResult> march_aln(areq.size());
  // Run twice: a warm-up, then timed on the warm arenas, which must not grow.
  struct MarchRun {
    double distance_s, align_s;
    std::uint64_t distance_windows, align_windows;
  };
  const auto runMarches = [&](Spans& sp) {
    const std::uint64_t w0 = march_solver.stats().lanes_filled;
    const int d = sp.begin("probe.core_distance_march", replay, 0);
    core::distanceWindowedBatch(march_solver, wcfg, dreq.data(), dreq.size(),
                                march_dist.data(), scratch);
    sp.end(d);
    const std::uint64_t w1 = march_solver.stats().lanes_filled;
    const int a = sp.begin("probe.core_align_march", replay, 0);
    core::alignWindowedBatch(march_solver, wcfg, areq.data(), areq.size(),
                             march_aln.data(), scratch);
    sp.end(a);
    return MarchRun{secondsOf(sp, d), secondsOf(sp, a), w1 - w0,
                    march_solver.stats().lanes_filled - w1};
  };
  Spans untimed(false);
  (void)runMarches(untimed);
  const std::uint64_t allocs_warm = scratch.allocs() + march_solver.scratchAllocs();
  const MarchRun march = runMarches(spans);
  m.num("core.distance_march_s", march.distance_s)
      .num("core.align_march_s", march.align_s);
  const simd::BatchStats bs = march_solver.stats();  // two identical runs
  const std::uint64_t steady_allocs =
      scratch.allocs() + march_solver.scratchAllocs() - allocs_warm;
  require(march_dist == distances, "core distance march != engine distanceBatch");
  for (std::size_t i = 0; i < areq.size(); ++i) {
    require(march_aln[i].ok == aligned[i].ok && march_aln[i].cigar == aligned[i].cigar,
            "core align march != engine alignBatch");
  }
  require(steady_allocs == 0, "steady-state scratch allocations in the march");
  m.num("core.windows", static_cast<double>(march.distance_windows + march.align_windows))
      .num("core.steady_allocs", static_cast<double>(steady_allocs))
      .num("simd.lane_occupancy",
           static_cast<double>(bs.lanes_filled) / static_cast<double>(bs.lane_slots))
      .num("simd.packing_efficiency",
           static_cast<double>(bs.useful_words) / static_cast<double>(bs.packed_words));

  // core DP counts: the improved solver against the baseline on a fixed
  // sample of the chain-best tasks, both counted with MemStats.
  util::MemStats imp, base;
  for (std::size_t i = 0; i < std::min(kCountTasks, best_tasks.size()); ++i) {
    (void)core::alignWindowedImproved(best_tasks[i].target, best_tasks[i].query, wcfg,
                                      core::ImprovedOptions::all(), &imp);
    (void)core::alignWindowedBaseline(best_tasks[i].target, best_tasks[i].query, wcfg,
                                      &base);
  }
  const auto per = [](std::uint64_t v, const util::MemStats& s) {
    return static_cast<double>(v) / static_cast<double>(s.problems);
  };
  m.num("core.count_windows", static_cast<double>(imp.problems))
      .num("core.dp_loads_per_window", per(imp.dp_loads, imp))
      .num("core.dp_stores_per_window", per(imp.dp_stores, imp))
      .num("core.dp_accesses_per_window", per(imp.accesses(), imp))
      .num("core.dp_bytes_peak", static_cast<double>(imp.bytes_peak))
      .num("core.footprint_reduction_vs_baseline",
           per(base.bytes_allocated, base) / per(imp.bytes_allocated, imp))
      .num("core.access_reduction_vs_baseline",
           per(base.accesses(), base) / per(imp.accesses(), imp));

  // simd: the W=64 windows of the aligned candidates. The distance march
  // calls solveWindowBatch (distance plus the committed ops); its probe
  // times the march's kernel share, solveDistanceBatch the bare distance.
  std::vector<simd::WindowProblem> windows;
  for (std::size_t i = 0; i < align_tasks.size(); ++i) {
    if (aligned[i].ok) {
      tileWindows(align_tasks[i].target, align_tasks[i].query, aligned[i].cigar, windows);
    }
  }
  simd::SimdBatchSolver kernel;
  std::vector<int> wdist(windows.size());
  std::vector<simd::WindowOutcome> wout(windows.size());
  std::vector<genasm::WindowResult> wres(windows.size());
  // The first round warms the kernel's arenas; the second is timed.
  int simd_bare = -1, simd_distance = -1, simd_align = -1;
  for (Spans* sp : {&untimed, &spans}) {
    simd_bare = sp->begin("probe.simd_distance_only", replay, 0);
    kernel.solveDistanceBatch(genasm::Anchor::StartOnly, windows.data(), windows.size(),
                              wdist.data());
    sp->end(simd_bare);
    simd_distance = sp->begin("probe.simd_distance", replay, 0);
    kernel.solveWindowBatch(genasm::Anchor::StartOnly, windows.data(), windows.size(),
                            wout.data());
    sp->end(simd_distance);
    simd_align = sp->begin("probe.simd_align", replay, 0);
    kernel.alignBatch(genasm::Anchor::StartOnly, windows.data(), windows.size(),
                      wres.data());
    sp->end(simd_align);
  }
  const auto n_windows = static_cast<double>(windows.size());
  m.num("simd.distance_windows_per_s", ratio(n_windows, secondsOf(spans, simd_bare)))
      .num("simd.align_windows_per_s", ratio(n_windows, secondsOf(spans, simd_align)));
  for (std::size_t i = 0; i < windows.size(); ++i) {
    require(wres[i].ok == (wdist[i] >= 0) && (!wres[i].ok || wres[i].distance == wdist[i]),
            "simd alignBatch distance != solveDistanceBatch");
    require(wout[i].ok == wres[i].ok && wout[i].distance == wres[i].distance,
            "simd solveWindowBatch distance != alignBatch");
  }
  m.num("simd.windows", n_windows);
  spans.end(replay);
  spans.end(root);

  // Nest the probes: a march's kernel time is its window count at the
  // per-window kernel time the probes measured on the tiled windows.
  const double simd_in_distance = static_cast<double>(march.distance_windows) *
                                  ratio(secondsOf(spans, simd_distance), n_windows);
  const double simd_in_align = static_cast<double>(march.align_windows) *
                               ratio(secondsOf(spans, simd_align), n_windows);
  nestDerived(spans, "simd.distance",
              nestDerived(spans, "core.distance_march", engine_distance, march.distance_s),
              simd_in_distance);
  nestDerived(spans, "simd.align",
              nestDerived(spans, "core.align_march", engine_align, march.align_s),
              simd_in_align);
  // Split the mapBatch engine stages by the same shares: phase 1 aligns
  // the chain-best candidates and distance-scores the rest, traceback
  // aligns.
  const double engine_both = secondsOf(spans, engine_align) + secondsOf(spans, engine_distance);
  const double core_both = march.align_s + march.distance_s;
  const double core_share_phase1 = std::min(1.0, ratio(core_both, engine_both));
  const double simd_share_phase1 =
      std::min(1.0, ratio(simd_in_align + simd_in_distance, core_both));
  const double core_share_traceback =
      std::min(1.0, ratio(march.align_s, secondsOf(spans, engine_align)));
  const double simd_share_traceback = std::min(1.0, ratio(simd_in_align, march.align_s));
  const std::size_t recorded = spans.all().size();
  for (std::size_t i = 0; i < recorded; ++i) {
    const std::string& name = spans.all()[i].name;
    const bool phase1 = name == "engine.phase1";
    if (!phase1 && name != "engine.traceback") continue;
    const int stage = static_cast<int>(i);
    const int core_span = nestDerived(
        spans, "core.march", stage,
        secondsOf(spans, stage) * (phase1 ? core_share_phase1 : core_share_traceback));
    nestDerived(spans, "simd.kernel", core_span,
                secondsOf(spans, core_span) *
                    (phase1 ? simd_share_phase1 : simd_share_traceback));
  }
  m.num("trace.core_share_of_engine", core_share_phase1)
      .num("trace.simd_share_of_core", simd_share_phase1);

  if (!spans.write(args.str("spans"))) {
    throw std::runtime_error("cannot write " + args.str("spans"));
  }
  Json out;
  out.obj("metrics", m).str("problem", problems);
  if (!writeText(args.str("out"), out.text() + "\n")) {
    throw std::runtime_error("cannot write " + args.str("out"));
  }
  if (!problems.empty()) std::fprintf(stderr, "perfbench trace: %s\n", problems.c_str());
  return problems.empty() ? 0 : 1;
}

}  // namespace perfbench
