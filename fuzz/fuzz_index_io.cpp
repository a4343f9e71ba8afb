// libFuzzer harness for the on-disk index loader: arbitrary bytes fed
// through MappedFile::fromBytes into the exact MappedIndex validation
// path that production mmap opens use. Every rejection must be a
// structured IndexIoError (a common::Error) — no crash, no OOB read
// (run under ASan), no acceptance of bytes that then fault in view().
// Build with -DGENASMX_FUZZ=ON.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "genasmx/common/error.hpp"
#include "genasmx/io/mmap_file.hpp"
#include "genasmx/mapper/index_io.hpp"
#include "genasmx/refmodel/reference.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::vector<std::byte> bytes(size);
  if (size != 0) std::memcpy(bytes.data(), data, size);
  try {
    const gx::mapper::MappedIndex idx(
        gx::io::MappedFile::fromBytes(std::move(bytes)), {}, "fuzz");
    // Bytes that validate must also serve: walk the accepted view the
    // way the mapper would.
    const gx::mapper::IndexView view = idx.view();
    const gx::refmodel::Reference& ref = view.reference();
    for (std::uint32_t c = 0; c < ref.contigCount(); ++c) {
      (void)ref.contig(c).name;
      (void)view.perContigKept(c);
    }
    // Serve lookups through the load-time key directory: the first and
    // last stored keys and the extremes 0 and ~0 (absent unless stored).
    // Every returned hit must belong to the probed key.
    const auto probe = [&](std::uint64_t key) {
      const auto hits = view.lookup(key);
      const auto at =
          static_cast<std::size_t>(hits.data() - view.valuesData());
      for (std::size_t i = 0; i < hits.size(); ++i) {
        if (view.keysData()[at + i] != key) std::abort();
      }
    };
    probe(0);
    probe(~std::uint64_t(0));
    if (!view.empty()) {
      probe(view.keysData()[0]);
      probe(view.keysData()[view.size() - 1]);
    }
  } catch (const gx::common::Error&) {
    // expected: malformed images are rejected with a structured error
  }
  return 0;
}
