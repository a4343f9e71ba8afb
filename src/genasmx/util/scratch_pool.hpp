#pragma once
// ScratchPool — spare per-worker objects (solver scratch, aligners),
// leased per pool chunk so workers never share one and steady-state
// batches allocate nothing: a chunk leases a spare (building one on a
// miss) and gives it back when done.

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace gx::util {

template <class T>
class ScratchPool {
 public:
  /// Take a spare, or return make() (a std::unique_ptr<T>) when none is
  /// left. The pool never holds more objects than the peak number of
  /// concurrent leases.
  template <class Make>
  [[nodiscard]] std::unique_ptr<T> lease(const Make& make) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!spares_.empty()) {
        std::unique_ptr<T> spare = std::move(spares_.back());
        spares_.pop_back();
        return spare;
      }
    }
    return make();
  }

  void giveBack(std::unique_ptr<T> spare) {
    const std::lock_guard<std::mutex> lock(mu_);
    spares_.push_back(std::move(spare));
  }

  /// Visit every spare; leased objects are not visited.
  template <class Fn>
  void forEach(Fn&& fn) const {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& spare : spares_) fn(*spare);
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<T>> spares_;
};

}  // namespace gx::util
