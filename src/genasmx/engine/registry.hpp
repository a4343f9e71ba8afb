#pragma once
// String-keyed factory for alignment backends. Runtime selection point
// for tools (--backend=), benches, and the AlignmentEngine.
//
// Built-in backends (registered on first use):
//   windowed-improved  windowed improved GenASM — the paper's system
//   myers              Myers bit-parallel + band doubling (Edlib-class)
//   ksw                banded affine DP (KSW2-class)
//   edit-dp            O(n*m) unit-cost reference DP (oracle)
//   affine-dp          O(n*m) Gotoh affine reference DP (oracle)
//
// The unimproved GenASM baseline is reproduction code, not a serving
// backend: the paper benches and tests call its scalar solvers
// (genasm::alignGlobalBaseline, core::alignWindowedBaseline) directly.
//
// Additional backends (GPU dispatch, remote shards, ...) register
// through add() without touching any consumer.

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "genasmx/engine/aligner.hpp"

namespace gx::engine {

class AlignerRegistry {
 public:
  using Factory = std::function<AlignerPtr(const AlignerConfig&)>;

  /// The process-wide registry, built-ins pre-registered. Registration
  /// is not synchronized: add backends during startup, before concurrent
  /// create() calls begin.
  [[nodiscard]] static AlignerRegistry& instance();

  /// Register (or replace) a backend.
  void add(std::string name, std::string description, Factory factory);

  [[nodiscard]] bool contains(std::string_view name) const noexcept;

  /// Instantiate a backend. Throws std::invalid_argument for an unknown
  /// name (the message lists the registered ones).
  [[nodiscard]] AlignerPtr create(std::string_view name,
                                  const AlignerConfig& cfg = {}) const;

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// One-line human description of a backend ("" if unknown).
  [[nodiscard]] std::string description(std::string_view name) const;

 private:
  AlignerRegistry();

  struct Entry {
    std::string description;
    Factory factory;
  };
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Convenience: AlignerRegistry::instance().create(name, cfg).
[[nodiscard]] AlignerPtr makeAligner(std::string_view name,
                                     const AlignerConfig& cfg = {});

}  // namespace gx::engine
