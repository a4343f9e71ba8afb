#include "genasmx/core/genasm_improved.hpp"

namespace gx::core {

common::AlignmentResult alignGlobalImproved(std::string_view target,
                                            std::string_view query,
                                            int max_edits,
                                            const ImprovedOptions& opts,
                                            util::MemStats* stats) {
  return genasm::withSolver<ImprovedWindowSolver>(
      static_cast<int>(query.size()), stats,
      [&](auto& solver, auto counter) {
        return genasm::alignGlobalWith(solver, target, query, max_edits,
                                       counter);
      },
      opts);
}

}  // namespace gx::core
