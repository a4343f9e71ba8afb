// Quickstart: align two sequences with the improved GenASM algorithm and
// inspect the result. Build & run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [TARGET QUERY]
//
// With no arguments a small demo pair is used.

#include <cstdio>
#include <string>

#include "genasmx/common/verify.hpp"
#include "genasmx/core/genasm_improved.hpp"
#include "genasmx/engine/registry.hpp"

int main(int argc, char** argv) {
  using namespace gx;
  std::string target = "ACGTACGTACGTTTGACAGCTAGCTAGGTACCACGT";
  std::string query = "ACGTACGAACGTTTGACGCTAGCTAGGTACCACGT";
  if (argc == 3) {
    target = argv[1];
    query = argv[2];
  }

  // Backends are created by name through the registry;
  // "windowed-improved" runs the paper's system: the improved GenASM
  // window solver marched along the pair in overlapping windows (W = 64,
  // O = 24), solved in SIMD lanes — what genasmx_map and the benchmarks
  // use, for short and long pairs alike.
  const engine::AlignerPtr aligner = engine::makeAligner("windowed-improved");
  const common::AlignmentResult res = aligner->align(target, query);
  if (!res.ok) {
    std::printf("alignment failed\n");
    return 1;
  }

  std::printf("backend       : %s\n",
              std::string(aligner->name()).c_str());
  std::printf("edit distance : %d\n", res.edit_distance);
  std::printf("CIGAR         : %s\n", res.cigar.str().c_str());

  // Always verify: consumes both sequences exactly, '='/'X' match chars.
  const auto v = common::verifyAlignment(target, query, res.cigar);
  std::printf("verified      : %s (cost %llu)\n", v.valid ? "yes" : "no",
              static_cast<unsigned long long>(v.cost));
  std::printf("\n%s", common::renderAlignment(target, query, res.cigar).c_str());

  // The three improvements can be toggled individually (ablation). The
  // scalar single-window (global) solver exposes the DP-memory
  // instrumentation the engine interface intentionally hides.
  core::ImprovedOptions no_et = core::ImprovedOptions::all();
  no_et.early_termination = false;
  util::MemStats with_et_stats, no_et_stats;
  (void)core::alignGlobalImproved(target, query, -1, {}, &with_et_stats);
  (void)core::alignGlobalImproved(target, query, -1, no_et, &no_et_stats);
  std::printf("\nDP entries computed with early termination: %llu, without: %llu\n",
              static_cast<unsigned long long>(with_et_stats.dp_entries),
              static_cast<unsigned long long>(no_et_stats.dp_entries));
  return 0;
}
