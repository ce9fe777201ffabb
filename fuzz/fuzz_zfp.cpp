// libFuzzer target: throw arbitrary bytes at ZfpCompressor::decompress.
// The contract (DESIGN.md §13a): every input either decodes to the
// nx*ny*nz values its header declares or fails with a typed CodecError --
// no other exception type, no crash, no sanitizer finding, and no
// allocation beyond what the stream itself can pay for.
//
// Build:  cmake -B build-fuzz -S . -DCMAKE_CXX_COMPILER=clang++ \
//             -DRMP_FUZZ=ON -DRMP_BUILD_TESTS=OFF -DRMP_BUILD_BENCH=OFF \
//             -DRMP_BUILD_EXAMPLES=OFF
//         ./build-fuzz/fuzz/fuzz_zfp corpus/ -max_total_time=60
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "compress/codec_error.hpp"
#include "compress/zfp_like.hpp"

namespace {

// A stream pays at least one bit per 4^d block, up to 64 cells; cap the
// claimed shape so the fuzzer explores parser states instead of filling
// memory with legal but huge fields.
constexpr std::uint64_t kMaxCells = std::uint64_t{1} << 20;
constexpr std::size_t kDimsOffset = 16;  // nx, ny, nz after magic..tolerance

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // A decode that succeeds read a header whose product did not overflow.
  std::uint64_t cells = 0;
  if (size >= kDimsOffset + 24) {
    std::uint64_t dims[3];
    std::memcpy(dims, data + kDimsOffset, sizeof(dims));
    if (!__builtin_mul_overflow(dims[0], dims[1], &cells) &&
        !__builtin_mul_overflow(cells, dims[2], &cells) && cells > kMaxCells) {
      return 0;
    }
  }
  try {
    const auto values = rmp::compress::ZfpCompressor{}.decompress(
        std::span<const std::uint8_t>(data, size));
    if (values.size() != cells) __builtin_trap();
  } catch (const rmp::compress::CodecError&) {
    // Typed rejection is the contract; any other exception escapes.
  }
  return 0;
}
