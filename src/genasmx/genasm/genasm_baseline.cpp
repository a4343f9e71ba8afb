#include "genasmx/genasm/genasm_baseline.hpp"

namespace gx::genasm {

common::AlignmentResult alignGlobalBaseline(std::string_view target,
                                            std::string_view query,
                                            int max_edits,
                                            util::MemStats* stats) {
  return withSolver<BaselineWindowSolver>(
      static_cast<int>(query.size()), stats, [&](auto& solver, auto counter) {
        return alignGlobalWith(solver, target, query, max_edits, counter);
      });
}

}  // namespace gx::genasm
