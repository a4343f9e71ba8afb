#pragma once
// Shared infrastructure for the experiment harnesses (E1-E8): workload
// construction mirroring the paper's methodology at a configurable scale,
// plus timing and table helpers.
//
// Paper methodology (Section II): 500 PacBio 10 kb reads simulated with
// PBSIM2 from the human genome, mapped with minimap2 -P; the resulting
// 138,929 (read, candidate location) pairs are aligned by every tool.
// Scale here is reduced by default so every experiment runs in seconds
// on one core; pass --scale=paper (or --reads/--length) to grow it.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "genasmx/core/windowed.hpp"
#include "genasmx/engine/aligner.hpp"
#include "genasmx/mapper/mapper.hpp"
#include "genasmx/readsim/genome.hpp"
#include "genasmx/readsim/read_simulator.hpp"
#include "genasmx/util/timer.hpp"

namespace gx::bench {

// --------------------------------------------------------------- perf JSON
//
// The tracked perf trajectory: each harness can emit a flat-ish JSON
// document (BENCH_*.json at the repo root) in its quick deterministic
// mode, so every PR records the numbers it was measured at. Dependency-
// free by design — a tiny ordered writer, not a JSON library.

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return raw(key, buf);
  }
  JsonObject& num(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& num(const std::string& key, int v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }
  JsonObject& obj(const std::string& key, const JsonObject& child) {
    return raw(key, child.str());
  }

  [[nodiscard]] std::string str() const { return body_ + "}"; }

  /// Write to `path` (with a trailing newline). Returns false on I/O
  /// failure so harnesses can exit non-zero.
  [[nodiscard]] bool writeFile(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << str() << "\n";
    return static_cast<bool>(out);
  }

 private:
  JsonObject& raw(const std::string& key, const std::string& v) {
    body_ += body_.size() == 1 ? "" : ",";
    body_ += "\"" + key + "\":" + v;
    return *this;
  }
  std::string body_ = "{";
};

/// Peak resident set size (VmHWM) in bytes; 0 where /proc is absent.
inline std::uint64_t peakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024ULL;
    }
  }
  return 0;
}

struct WorkloadConfig {
  std::size_t genome_len = 400'000;
  std::size_t read_count = 20;
  std::size_t read_length = 2'000;
  double error_rate = 0.10;
  std::size_t max_candidates_per_read = 8;
  std::uint64_t seed = 1234;
  /// Quick deterministic mode for the tracked perf JSON: a fixed reduced
  /// workload (seeded PRNGs everywhere) that finishes in seconds.
  bool quick = false;
  /// When non-empty, the harness writes its BENCH_*.json here.
  std::string json_path;

  static WorkloadConfig fromArgs(int argc, char** argv) {
    WorkloadConfig cfg;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto val = [&](const char* key) -> const char* {
        const std::size_t n = std::strlen(key);
        return arg.rfind(key, 0) == 0 ? arg.c_str() + n : nullptr;
      };
      if (const char* v = val("--genome=")) cfg.genome_len = std::strtoull(v, nullptr, 10);
      else if (const char* v2 = val("--reads=")) cfg.read_count = std::strtoull(v2, nullptr, 10);
      else if (const char* v3 = val("--length=")) cfg.read_length = std::strtoull(v3, nullptr, 10);
      else if (const char* v4 = val("--error=")) cfg.error_rate = std::strtod(v4, nullptr);
      else if (const char* v5 = val("--seed=")) cfg.seed = std::strtoull(v5, nullptr, 10);
      else if (const char* v6 = val("--json=")) cfg.json_path = v6;
      else if (arg == "--quick") cfg.quick = true;
      else if (arg == "--scale=paper") {
        // The paper's full workload; expect minutes-to-hours on one core.
        cfg.genome_len = 20'000'000;
        cfg.read_count = 500;
        cfg.read_length = 10'000;
      }
    }
    return cfg;
  }
};

struct Workload {
  std::string genome;
  std::vector<readsim::SimulatedRead> reads;
  std::vector<mapper::AlignmentPair> pairs;
  std::size_t total_candidates = 0;
  double build_seconds = 0;
  double aligned_bases = 0;  ///< sum of query lengths over pairs
};

inline Workload buildWorkload(const WorkloadConfig& cfg) {
  util::Timer timer;
  Workload w;
  readsim::GenomeConfig gcfg;
  gcfg.length = cfg.genome_len;
  gcfg.seed = cfg.seed;
  // A repeat-rich genome so `-P`-style all-chain mapping yields secondary
  // candidates per read, as the paper's human-genome workload does.
  gcfg.repeat_fraction = 0.25;
  gcfg.repeat_unit = 2'000;
  gcfg.repeat_divergence = 0.02;
  w.genome = readsim::generateGenome(gcfg);

  auto rcfg = readsim::ReadSimConfig::pacbioClr(cfg.read_count, cfg.read_length);
  rcfg.errors.error_rate = cfg.error_rate;
  rcfg.seed = cfg.seed + 1;
  w.reads = readsim::simulateReads(w.genome, rcfg);

  mapper::Mapper mapper(std::string(w.genome));
  for (const auto& r : w.reads) {
    const auto cands = mapper.map(r.seq);
    w.total_candidates += cands.size();
    auto rp = mapper::buildAlignmentPairs(mapper, r.seq,
                                          cfg.max_candidates_per_read);
    for (auto& p : rp) w.pairs.push_back(std::move(p));
  }
  for (const auto& p : w.pairs) {
    w.aligned_bases += static_cast<double>(p.query.size());
  }
  w.build_seconds = timer.seconds();
  return w;
}

/// Time `fn()` and return seconds (single run; workloads are sized so one
/// run is representative, and benches print work counts alongside).
template <class Fn>
double timeIt(Fn&& fn) {
  util::Timer t;
  fn();
  return t.seconds();
}

/// Align every pair with a registry backend; returns the summed edit
/// cost (a failed alignment adds its -1, as the benches always counted).
inline std::uint64_t alignAll(engine::Aligner& aligner,
                              const std::vector<mapper::AlignmentPair>& pairs) {
  std::uint64_t cost = 0;
  for (const auto& p : pairs) {
    cost += static_cast<std::uint64_t>(
        aligner.align(p.target, p.query).edit_distance);
  }
  return cost;
}

/// alignAll for the paper's scalar windowed GenASM march, which is
/// reproduction code and no registry backend: `solver` is one reused
/// genasm::BaselineWindowSolver<1> or core::ImprovedWindowSolver<1> (the
/// default W = 64 window fits one word), with one reused WindowBuffers.
template <class Solver>
std::uint64_t marchAll(Solver& solver,
                       const std::vector<mapper::AlignmentPair>& pairs) {
  const core::WindowConfig wcfg;
  core::WindowBuffers bufs;
  std::uint64_t cost = 0;
  for (const auto& p : pairs) {
    cost += static_cast<std::uint64_t>(
        core::alignWindowed(solver, p.target, p.query, wcfg, bufs)
            .edit_distance);
  }
  return cost;
}

inline void printHeader(const char* experiment, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper claim: %s\n", claim);
  std::printf("==============================================================\n");
}

inline void printWorkload(const WorkloadConfig& cfg, const Workload& w) {
  std::printf(
      "Workload: genome=%zubp reads=%zux%zubp (%.0f%% err) candidates=%zu "
      "pairs=%zu (built in %.2fs)\n\n",
      cfg.genome_len, w.reads.size(), cfg.read_length, cfg.error_rate * 100,
      w.total_candidates, w.pairs.size(), w.build_seconds);
}

}  // namespace gx::bench
