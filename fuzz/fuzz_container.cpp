// libFuzzer target: throw arbitrary bytes at the container salvage parser
// and the guarded decode path, under the SZ and the ZFP codec pair alike
// (the reader picks the pair, so either may meet any archive).  The
// contract under test: no crash, no sanitizer report, and every rejection
// is a typed std::exception -- the same promise the guard layer makes to
// real callers handed a truncated or bit-flipped archive.
//
// Build:  cmake -B build-fuzz -S . -DCMAKE_CXX_COMPILER=clang++ \
//             -DRMP_FUZZ=ON -DRMP_BUILD_TESTS=OFF -DRMP_BUILD_BENCH=OFF \
//             -DRMP_BUILD_EXAMPLES=OFF
//         ./build-fuzz/fuzz/fuzz_container corpus/ -max_total_time=60
#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>

#include "core/pipeline.hpp"
#include "core/preconditioner.hpp"
#include "io/container.hpp"

namespace {

// Decoders allocate nx*ny*nz doubles up front; cap the claimed shape so
// the fuzzer explores parser states instead of OOM-ing the harness.
constexpr std::uint64_t kMaxCells = std::uint64_t{1} << 20;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);

  rmp::io::Container container;
  rmp::io::ReadReport report;
  try {
    container = rmp::io::deserialize_salvage(bytes, &report);
  } catch (const std::exception&) {
    return 0;  // typed rejection of a hopeless envelope is the contract
  }

  const std::uint64_t cells = static_cast<std::uint64_t>(container.nx) *
                              container.ny * container.nz;
  if (cells == 0 || cells > kMaxCells) return 0;

  static const rmp::core::Codecs sz = rmp::core::make_codecs("sz");
  static const rmp::core::Codecs zfp = rmp::core::make_codecs("zfp");
  for (const rmp::core::Codecs* codecs : {&sz, &zfp}) {
    try {
      (void)rmp::core::reconstruct_best_effort(container, report,
                                               codecs->pair());
    } catch (const std::exception&) {
      // Salvaged-but-undecodable payloads must still fail with typed errors.
    }
  }
  return 0;
}
