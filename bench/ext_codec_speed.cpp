// ext_codec_speed -- SZ-hot-path microbenchmarks.  Times the layers the
// DESIGN.md §13 overhaul targets in isolation:
//
//   * Huffman encode/decode MB/s over a quantization-shaped symbol stream
//     (MB measured on the 4-byte-per-symbol input side);
//   * Lorenzo quantize/dequantize Melem/s, read from the codec/sz obs
//     spans of a full SzCompressor round trip;
//   * SZ end-to-end encode/decode MB/s.
//
// Every number is best-of-N wall time, which suppresses scheduler noise
// far better than single-shot timing on shared machines.  Exits non-zero
// when the Huffman round trip does not reproduce its symbols or the SZ
// round trip its value count.
//
//   ext_codec_speed [scale]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "compress/huffman.hpp"
#include "compress/sz.hpp"
#include "obs/obs.hpp"

namespace {

using namespace rmp;

constexpr int kReps = 7;

// Sum of total_seconds over registry spans whose path ends in `suffix`
// (span paths nest under the caller, so the tail is the stable part).
double span_seconds(std::string_view suffix) {
  double total = 0.0;
  for (const auto& span : obs::Registry::global().spans()) {
    const std::string& path = span.name;
    if (path.size() >= suffix.size() &&
        std::string_view(path).substr(path.size() - suffix.size()) == suffix) {
      total += span.total_seconds;
    }
  }
  return total;
}

// Quantization-code-shaped stream: mostly the zero-residual bin with a
// skewed tail, like a smooth field quantizes to.
std::vector<std::uint32_t> make_symbol_stream(std::size_t count) {
  std::mt19937 rng(4242);
  std::vector<std::uint32_t> symbols(count);
  const std::uint32_t center = 1u << 15;
  for (auto& s : symbols) {
    const std::uint32_t r = rng();
    if (r % 100 < 90) {
      s = center + (r % 7) - 3;
    } else {
      s = r % (1u << 16);
    }
  }
  return symbols;
}

// Smooth synthetic 3D field with mild noise -- quantizes mostly to hits.
std::vector<double> make_field(std::size_t nx, std::size_t ny, std::size_t nz) {
  std::mt19937_64 rng(991);
  std::uniform_real_distribution<double> noise(-0.5, 0.5);
  std::vector<double> data(nx * ny * nz);
  std::size_t n = 0;
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ny; ++j) {
      for (std::size_t k = 0; k < nz; ++k, ++n) {
        data[n] = 100.0 * std::sin(0.05 * static_cast<double>(i)) *
                      std::cos(0.07 * static_cast<double>(j)) +
                  0.5 * static_cast<double>(k) + 0.01 * noise(rng);
      }
    }
  }
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::parse_scale(argc, argv, 1.0);

  bench::print_header("ext_codec_speed",
                      "SZ hot-path microbenchmarks (best-of-N)");

  // --- Huffman over a 2M-symbol quantization-shaped stream ------------
  const auto symbols = make_symbol_stream(
      static_cast<std::size_t>(2'000'000 * std::max(scale, 0.05)));
  const double symbol_mb =
      static_cast<double>(symbols.size() * sizeof(std::uint32_t)) / 1e6;

  std::vector<std::uint8_t> encoded;
  double huff_encode_s = 1e300, huff_decode_s = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    const obs::ScopedSpan timer("bench/huffman-encode");
    encoded = compress::huffman_encode(symbols);
    huff_encode_s = std::min(huff_encode_s, timer.elapsed_seconds());
  }
  std::vector<std::uint32_t> decoded_symbols;
  for (int rep = 0; rep < kReps; ++rep) {
    const obs::ScopedSpan timer("bench/huffman-decode");
    decoded_symbols = compress::huffman_decode(encoded);
    huff_decode_s = std::min(huff_decode_s, timer.elapsed_seconds());
  }
  if (decoded_symbols != symbols) {
    std::fprintf(stderr, "ext_codec_speed: huffman round trip mismatch\n");
    return 1;
  }

  // --- SZ round trip; Lorenzo kernel rates come from the obs spans ----
  const auto edge = static_cast<std::size_t>(
      std::max(16.0, 80.0 * std::cbrt(std::max(scale, 0.05))));
  const auto field = make_field(edge, edge, edge);
  const compress::Dims dims{edge, edge, edge};
  const double field_mb = static_cast<double>(field.size() * sizeof(double)) / 1e6;
  const double field_melem = static_cast<double>(field.size()) / 1e6;
  const compress::SzCompressor sz{compress::SzOptions{}};  // block-relative Lorenzo

  std::vector<std::uint8_t> archive;
  std::vector<double> restored;
  double sz_encode_s = 1e300, sz_decode_s = 1e300;
  double quantize_s = 1e300, dequantize_s = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    obs::Registry::global().reset();
    {
      const obs::ScopedSpan timer("bench/sz-encode");
      archive = sz.compress(field, dims);
      sz_encode_s = std::min(sz_encode_s, timer.elapsed_seconds());
    }
    {
      const obs::ScopedSpan timer("bench/sz-decode");
      restored = sz.decompress(archive);
      sz_decode_s = std::min(sz_decode_s, timer.elapsed_seconds());
    }
    quantize_s = std::min(quantize_s, span_seconds("codec/sz/quantize"));
    dequantize_s = std::min(dequantize_s, span_seconds("codec/sz/dequantize"));
  }
  if (restored.size() != field.size()) {
    std::fprintf(stderr, "ext_codec_speed: sz round trip size mismatch\n");
    return 1;
  }

  const double huffman_encode_mb_s = symbol_mb / huff_encode_s;
  const double huffman_decode_mb_s = symbol_mb / huff_decode_s;
  const double lorenzo_quantize_melem_s = field_melem / quantize_s;
  const double lorenzo_dequantize_melem_s = field_melem / dequantize_s;
  const double sz_encode_mb_s = field_mb / sz_encode_s;
  const double sz_decode_mb_s = field_mb / sz_decode_s;

  std::printf("huffman  encode %8.1f MB/s   decode %8.1f MB/s  (%zu symbols)\n",
              huffman_encode_mb_s, huffman_decode_mb_s, symbols.size());
  std::printf("lorenzo  quantize %6.1f Melem/s   dequantize %6.1f Melem/s "
              "(%zu^3 grid)\n",
              lorenzo_quantize_melem_s, lorenzo_dequantize_melem_s, edge);
  std::printf("sz       encode %8.1f MB/s   decode %8.1f MB/s\n",
              sz_encode_mb_s, sz_decode_mb_s);
  return 0;
}
