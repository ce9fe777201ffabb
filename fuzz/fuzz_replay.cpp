// A plain main() for any LLVMFuzzerTestOneInput target, so that a build
// without libFuzzer (gcc, or clang without RMP_FUZZ) runs the targets too.
// It replays every file of a seed corpus directory and, per seed, a fixed
// seeded set of mutations: byte flips, truncations, and 4- or 8-byte
// fields blown up to extreme lengths.  A harness reports a broken contract
// by crashing or through a sanitizer; an exception that escapes it fails
// the replay with the seed and mutation that raised it.
//
// Run:  ./build/fuzz/fuzz_zfp_replay fuzz/corpus/zfp
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr int kMutationsPerKind = 128;
// Length fields blown up: counts and sizes a hostile stream might claim.
constexpr std::uint64_t kExtremes[] = {
    ~std::uint64_t{0}, std::uint64_t{1} << 63, std::uint64_t{1} << 60,
    std::uint64_t{1} << 40, std::uint64_t{1} << 32, 0xFFFFFFFFu,
    std::uint64_t{1} << 31, 0};

// The seed's mutations, the same on every run: `salt` is the seed's index.
std::vector<Bytes> mutations(const Bytes& seed, std::uint64_t salt) {
  std::vector<Bytes> out;
  if (seed.empty()) return out;
  std::mt19937_64 rng(salt);
  for (int i = 0; i < kMutationsPerKind; ++i) {
    Bytes flipped = seed;
    for (int f = 1 + static_cast<int>(rng() % 4); f > 0; --f) {
      flipped[rng() % flipped.size()] ^=
          static_cast<std::uint8_t>(1 + rng() % 255);
    }
    out.push_back(std::move(flipped));

    out.emplace_back(seed.begin(), seed.begin() + rng() % seed.size());

    Bytes blown = seed;
    const std::size_t width = rng() % 2 ? 8 : 4;
    if (blown.size() >= width) {
      // Half land in the first 64 bytes, where the headers are.
      const std::size_t span = blown.size() - width + 1;
      const std::size_t at = rng() % 2 ? rng() % std::min<std::size_t>(span, 64)
                                       : rng() % span;
      const std::uint64_t value = kExtremes[rng() % std::size(kExtremes)];
      std::memcpy(blown.data() + at, &value, width);  // little-endian host
    }
    out.push_back(std::move(blown));
  }
  return out;
}

// An exactly sized heap copy, as libFuzzer passes, so that ASan sees a
// read one byte past the end.
void run(const Bytes& input) {
  const auto copy = std::make_unique<std::uint8_t[]>(input.size());
  std::copy(input.begin(), input.end(), copy.get());
  LLVMFuzzerTestOneInput(copy.get(), input.size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  std::vector<std::filesystem::path> seeds;
  for (const auto& entry : std::filesystem::directory_iterator(argv[1])) {
    if (entry.is_regular_file()) seeds.push_back(entry.path());
  }
  std::sort(seeds.begin(), seeds.end());
  if (seeds.empty()) {
    std::fprintf(stderr, "%s: no seeds in %s\n", argv[0], argv[1]);
    return 1;
  }
  std::size_t inputs = 0;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    std::ifstream file(seeds[s], std::ios::binary);
    const Bytes seed{std::istreambuf_iterator<char>(file),
                     std::istreambuf_iterator<char>()};
    std::vector<Bytes> batch = mutations(seed, s + 1);
    batch.insert(batch.begin(), seed);
    for (std::size_t m = 0; m < batch.size(); ++m, ++inputs) {
      try {
        run(batch[m]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s, input %zu (0 = the seed): %s\n",
                     argv[0], seeds[s].c_str(), m, e.what());
        return 1;
      }
    }
  }
  std::printf("%zu seeds, %zu inputs replayed\n", seeds.size(), inputs);
  return 0;
}
