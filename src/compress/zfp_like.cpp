#include "compress/zfp_like.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "compress/bitstream.hpp"
#include "compress/codec_error.hpp"
#include "obs/obs.hpp"

namespace rmp::compress {
namespace {

constexpr std::uint32_t kMagic = 0x3150465A;  // "ZFP1"
constexpr unsigned kIntPrec = 64;             // bit planes per coefficient
constexpr int kExponentBias = 2048;           // 12-bit biased block exponent
constexpr std::uint64_t kNbMask = 0xaaaaaaaaaaaaaaaaULL;

struct Header {
  std::uint32_t magic;
  std::uint8_t mode;
  std::uint8_t precision;
  std::uint16_t reserved;
  double tolerance;
  std::uint64_t nx, ny, nz;
};

// ---------------------------------------------------------------------------
// Fixed-point conversion

int value_exponent(double v) {
  if (v == 0.0) return -kExponentBias;
  int e;
  std::frexp(std::fabs(v), &e);
  return e;
}

// 2^e when that is a normal double, else 0.  Scaling by a normal power of
// two is exact up to the final rounding, so `v * pow2(e)` equals
// `ldexp(v, e)` bit for bit; callers fall back to ldexp when this is 0.
double pow2(int e) {
  if (e < -1022 || e > 1023) return 0.0;
  return std::bit_cast<double>(static_cast<std::uint64_t>(e + 1023) << 52);
}

// |v| < 2^emax implies |result| <= 2^61, leaving headroom for the
// transform's range expansion.
void to_fixed(const double* block, std::int64_t* fixed, std::size_t size,
              int emax) {
  const int e = 61 - emax;
  if (const double scale = pow2(e); scale != 0.0) {
    for (std::size_t i = 0; i < size; ++i) {
      fixed[i] = static_cast<std::int64_t>(block[i] * scale);
    }
  } else {
    for (std::size_t i = 0; i < size; ++i) {
      fixed[i] = static_cast<std::int64_t>(std::ldexp(block[i], e));
    }
  }
}

void from_fixed(const std::uint64_t* fixed, double* block, std::size_t size,
                int emax) {
  const int e = emax - 61;
  if (const double scale = pow2(e); scale != 0.0) {
    for (std::size_t i = 0; i < size; ++i) {
      block[i] = static_cast<double>(static_cast<std::int64_t>(fixed[i])) *
                 scale;
    }
  } else {
    for (std::size_t i = 0; i < size; ++i) {
      block[i] = std::ldexp(
          static_cast<double>(static_cast<std::int64_t>(fixed[i])), e);
    }
  }
}

// ---------------------------------------------------------------------------
// ZFP lifting transform on 4-vectors (strided access into the block)

void forward_lift(std::int64_t* p, std::size_t stride) {
  std::int64_t x = p[0 * stride];
  std::int64_t y = p[1 * stride];
  std::int64_t z = p[2 * stride];
  std::int64_t w = p[3 * stride];

  x += w; x >>= 1; w -= x;
  z += y; z >>= 1; y -= z;
  x += z; x >>= 1; z -= x;
  w += y; w >>= 1; y -= w;
  w += y >> 1; y -= w >> 1;

  p[0 * stride] = x;
  p[1 * stride] = y;
  p[2 * stride] = z;
  p[3 * stride] = w;
}

// Apply the lift along every axis of a 4^rank block (rank in 1..3).
void forward_transform(std::int64_t* block, unsigned rank) {
  if (rank == 1) {
    forward_lift(block, 1);
    return;
  }
  if (rank == 2) {
    for (std::size_t row = 0; row < 4; ++row) forward_lift(block + 4 * row, 1);
    for (std::size_t col = 0; col < 4; ++col) forward_lift(block + col, 4);
    return;
  }
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t y = 0; y < 4; ++y)
      forward_lift(block + 16 * z + 4 * y, 1);
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t x = 0; x < 4; ++x)
      forward_lift(block + 16 * z + x, 4);
  for (std::size_t y = 0; y < 4; ++y)
    for (std::size_t x = 0; x < 4; ++x)
      forward_lift(block + 4 * y + x, 16);
}

// The decoder lifts in wrapping unsigned arithmetic.  On coefficients an
// encoder wrote nothing overflows, so the result equals the signed lift bit
// for bit; a hostile stream's coefficients (up to 2^63) wrap instead of
// overflowing a signed integer.  asr1 is the arithmetic shift right by one,
// written without a signed shift so that the lanes below vectorize.
std::uint64_t asr1(std::uint64_t v) {
  return (v >> 1) | (v & (std::uint64_t{1} << 63));
}

// Inverse lift of `Lanes` adjacent 4-vectors at once: vector l is
// p[l + m * Stride] for m = 0..3.
template <std::size_t Stride, std::size_t Lanes>
void inverse_lift(std::uint64_t* p) {
  for (std::size_t l = 0; l < Lanes; ++l) {
    std::uint64_t x = p[l];
    std::uint64_t y = p[l + Stride];
    std::uint64_t z = p[l + 2 * Stride];
    std::uint64_t w = p[l + 3 * Stride];

    y += asr1(w); w -= asr1(y);
    y += w; w <<= 1; w -= y;
    z += x; x <<= 1; x -= z;
    y += z; z <<= 1; z -= y;
    w += x; x <<= 1; x -= w;

    p[l] = x;
    p[l + Stride] = y;
    p[l + 2 * Stride] = z;
    p[l + 3 * Stride] = w;
  }
}

// The forward passes in reverse axis order: z, then y, then x.
void inverse_transform(std::uint64_t* block, unsigned rank) {
  if (rank == 1) {
    inverse_lift<1, 1>(block);
    return;
  }
  if (rank == 2) {
    inverse_lift<4, 4>(block);
    for (std::size_t row = 0; row < 4; ++row) {
      inverse_lift<1, 1>(block + 4 * row);
    }
    return;
  }
  inverse_lift<16, 16>(block);
  for (std::size_t z = 0; z < 4; ++z) inverse_lift<4, 4>(block + 16 * z);
  for (std::size_t row = 0; row < 16; ++row) {
    inverse_lift<1, 1>(block + 4 * row);
  }
}

// Coefficient visiting order: ascending total sequency (i+j+k), matching
// ZFP's idea that low-frequency coefficients carry the energy.  Ties are
// broken by flat index so encoder and decoder agree.  Built once per rank.
const std::uint8_t* sequency_permutation(unsigned rank) {
  static const auto tables = [] {
    std::array<std::array<std::uint8_t, 64>, 4> t{};
    for (unsigned r = 1; r <= 3; ++r) {
      auto sequency = [r](std::size_t flat) {
        unsigned s = 0;
        for (unsigned d = 0; d < r; ++d, flat >>= 2) {
          s += static_cast<unsigned>(flat & 3);
        }
        return s;
      };
      const auto perm = t[r].begin();
      const auto end = perm + (std::ptrdiff_t{1} << (2 * r));
      std::iota(perm, end, 0);
      std::stable_sort(perm, end, [&](std::size_t a, std::size_t b) {
        return sequency(a) < sequency(b);
      });
    }
    return t;
  }();
  return tables[rank].data();
}

std::uint64_t to_negabinary(std::int64_t x) {
  return (static_cast<std::uint64_t>(x) + kNbMask) ^ kNbMask;
}

std::uint64_t from_negabinary(std::uint64_t u) {
  return (u ^ kNbMask) - kNbMask;
}

// ---------------------------------------------------------------------------
// Embedded bit-plane coding with group-testing significance passes.

// Bit budget for fixed-rate blocks.  kUnlimited disables the cap (fixed
// precision / accuracy modes).  Encoder and decoder run the identical
// arithmetic, so exhausting the budget truncates both at the same point.
constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);

// Group-testing significance coding, transcribed from ZFP's encode loop.
// `n` (the watermark of coefficients encoded verbatim) persists across
// planes: once the scan has walked past a position, later planes carry its
// bit verbatim.  Past the watermark each step is a group test ("any 1
// left?") followed, when positive, by a unary run of 0s up to the next 1;
// the 1 of the last coefficient is implied, and the run is clipped to the
// budget.  Returns bits actually written.
std::size_t encode_planes(BitWriter& writer, const std::uint64_t* coeffs,
                          std::size_t size, unsigned planes,
                          std::size_t budget = kUnlimited) {
  std::size_t used = 0;
  std::size_t n = 0;
  for (unsigned k = kIntPrec; planes-- > 0 && k-- > 0 && used < budget;) {
    // Gather bit plane k in visiting order (bit i of x = coefficient i).
    std::uint64_t x = 0;
    for (std::size_t i = 0; i < size; ++i) {
      x |= ((coeffs[i] >> k) & 1u) << i;
    }
    // Verbatim bits for coefficients below the watermark (clipped to the
    // budget, as in ZFP's "m = MIN(n, bits)").
    const auto verbatim = static_cast<unsigned>(
        std::min<std::size_t>(n, budget - used));
    writer.put_bits(x, verbatim);
    used += verbatim;
    // n can reach 64 once every coefficient is significant; shifting a
    // 64-bit value by 64 is undefined, so clamp to "all bits consumed".
    x = n < 64 ? x >> n : 0;
    std::size_t i = n;
    while (i < size && used < budget) {
      if (x == 0) {  // negative group test
        writer.put_bit(false);
        ++used;
        break;
      }
      // Positive group test plus the run, written as one put_bits.
      const auto run = static_cast<unsigned>(
          std::min(size - i - 1, budget - used - 1));
      const auto zeros = static_cast<unsigned>(std::countr_zero(x));
      if (zeros >= run) {  // implied last 1, or out of budget: scan ends
        writer.put_bits(1, run + 1);
        used += run + 1;
        i += run + 1;
        break;
      }
      writer.put_bits(1 | (std::uint64_t{2} << zeros), zeros + 2);
      used += zeros + 2;
      i += zeros + 1;
      x >>= zeros + 1;
    }
    n = std::max(n, i);
  }
  return used;
}

// Mirror of encode_planes.  Each group test and its run are scanned from
// one peek_bits window; the set bits of the plane are then scattered into
// the coefficients one by one.
std::size_t decode_planes(BitReader& reader, std::uint64_t* coeffs,
                          std::size_t size, unsigned planes,
                          std::size_t budget = kUnlimited) {
  std::fill(coeffs, coeffs + size, 0);
  std::size_t used = 0;
  std::size_t n = 0;
  for (unsigned k = kIntPrec; planes-- > 0 && k-- > 0 && used < budget;) {
    const auto verbatim = static_cast<unsigned>(
        std::min<std::size_t>(n, budget - used));
    std::uint64_t x = reader.get_bits(verbatim);
    used += verbatim;
    std::size_t i = n;
    while (i < size && used < budget) {
      const auto run = static_cast<unsigned>(
          std::min(size - i - 1, budget - used - 1));
      // peek_bits reads past-the-end bits as 0; skip_bits then throws.
      const std::uint64_t window = reader.peek_bits(run + 1);
      if ((window & 1) == 0) {  // negative group test
        reader.skip_bits(1);
        ++used;
        break;
      }
      const std::uint64_t tail = window >> 1;
      const auto zeros = tail != 0
                             ? static_cast<unsigned>(std::countr_zero(tail))
                             : run;
      // An explicit 1 costs one more bit than the implied or truncated one.
      const unsigned bits = zeros + (zeros < run ? 2 : 1);
      reader.skip_bits(bits);
      used += bits;
      i += zeros;
      x |= std::uint64_t{1} << i;
      ++i;
      if (zeros >= run) break;
    }
    n = std::max(n, i);
    for (; x != 0; x &= x - 1) {
      coeffs[std::countr_zero(x)] |= std::uint64_t{1} << k;
    }
  }
  return used;
}

// ---------------------------------------------------------------------------
// Block gather/scatter with edge replication for partial blocks.

// Blocks along an axis of extent n; no overflow even for n near SIZE_MAX.
std::size_t blocks_along(std::size_t n) { return n / 4 + (n % 4 != 0); }

struct BlockIndexer {
  Dims dims;
  unsigned rank;

  std::size_t blocks_x() const { return blocks_along(dims.nx); }
  std::size_t blocks_y() const { return rank >= 2 ? blocks_along(dims.ny) : 1; }
  std::size_t blocks_z() const { return rank >= 3 ? blocks_along(dims.nz) : 1; }
  std::size_t block_count() const {
    return blocks_x() * blocks_y() * blocks_z();
  }
  std::size_t block_size() const { return std::size_t{1} << (2 * rank); }
};

// Block value (x, y, z) is block[x + 4y + 16z]; z is the field's fastest
// axis, so both loops walk each (x, y) row of up to 4 contiguous cells.
void gather_block(std::span<const double> data, const BlockIndexer& bi,
                  std::size_t bx, std::size_t by, std::size_t bz,
                  double* block) {
  const Dims& d = bi.dims;
  const std::size_t ix0 = bx * 4, iy0 = by * 4, iz0 = bz * 4;
  const std::size_t yext = bi.rank >= 2 ? 4 : 1;
  const std::size_t zext = bi.rank >= 3 ? 4 : 1;
  // Partial blocks replicate the last cell along each axis.
  for (std::size_t x = 0; x < 4; ++x) {
    const std::size_t ix = std::min(ix0 + x, d.nx - 1);
    for (std::size_t y = 0; y < yext; ++y) {
      const std::size_t iy = std::min(iy0 + y, d.ny - 1);
      const double* row = data.data() + (ix * d.ny + iy) * d.nz;
      for (std::size_t z = 0; z < zext; ++z) {
        block[x + 4 * y + 16 * z] = row[std::min(iz0 + z, d.nz - 1)];
      }
    }
  }
}

void scatter_block(std::span<double> data, const BlockIndexer& bi,
                   std::size_t bx, std::size_t by, std::size_t bz,
                   const double* block) {
  const Dims& d = bi.dims;
  const std::size_t ix0 = bx * 4, iy0 = by * 4, iz0 = bz * 4;
  // Partial blocks write only the cells inside the field.
  const std::size_t xext = std::min<std::size_t>(4, d.nx - ix0);
  const std::size_t yext =
      bi.rank >= 2 ? std::min<std::size_t>(4, d.ny - iy0) : 1;
  const std::size_t zext =
      bi.rank >= 3 ? std::min<std::size_t>(4, d.nz - iz0) : 1;
  for (std::size_t x = 0; x < xext; ++x) {
    for (std::size_t y = 0; y < yext; ++y) {
      double* row = data.data() + ((ix0 + x) * d.ny + iy0 + y) * d.nz + iz0;
      for (std::size_t z = 0; z < zext; ++z) {
        row[z] = block[x + 4 * y + 16 * z];
      }
    }
  }
}

unsigned planes_for_block(const ZfpOptions& opts, int emax) {
  if (opts.mode == ZfpMode::kFixedPrecision) {
    return std::min(opts.precision, kIntPrec);
  }
  if (opts.mode == ZfpMode::kFixedRate) {
    return kIntPrec;  // the bit budget, not a plane count, truncates
  }
  // FixedAccuracy: the LSB of the fixed-point representation is worth
  // 2^(emax - 61); keep planes down to the one whose weight is still above
  // tolerance / 16 (4 bits of slack for negabinary truncation and the
  // inverse transform's range expansion).  options_error() has checked
  // that the tolerance is finite and positive.
  const int tol_exp = value_exponent(opts.tolerance);
  const int lsb_exp = emax - 61;
  const int keep = 64 - (tol_exp - 4 - lsb_exp);
  return static_cast<unsigned>(std::clamp(keep, 1, static_cast<int>(kIntPrec)));
}

// Why `opts` cannot drive the codec, or "" if it can.  The constructor
// raises it as std::invalid_argument, the decoder (for a stream header) as
// a CodecError.
std::string options_error(const ZfpOptions& opts) {
  switch (opts.mode) {
    case ZfpMode::kFixedPrecision:
      if (opts.precision == 0 || opts.precision > 62) {
        return "precision must be in 1..62";
      }
      return "";
    case ZfpMode::kFixedAccuracy:
      if (!(std::isfinite(opts.tolerance) && opts.tolerance > 0.0)) {
        return "tolerance must be finite and positive";
      }
      return "";
    case ZfpMode::kFixedRate:
      if (opts.rate == 0 || opts.rate > 64) return "rate must be in 1..64";
      return "";
  }
  return "unknown mode";
}

// Fixed rate needs room for the 13-bit block header plus one plane bit.
constexpr std::size_t kMinBlockBudget = 14;

}  // namespace

ZfpCompressor::ZfpCompressor(ZfpOptions options) : options_(options) {
  if (const std::string why = options_error(options_); !why.empty()) {
    throw std::invalid_argument("ZfpCompressor: " + why);
  }
}

std::string ZfpCompressor::name() const {
  switch (options_.mode) {
    case ZfpMode::kFixedPrecision: return "zfp-prec";
    case ZfpMode::kFixedAccuracy: return "zfp-acc";
    case ZfpMode::kFixedRate: return "zfp-rate";
  }
  return "zfp";
}

std::vector<std::uint8_t> ZfpCompressor::compress(std::span<const double> data,
                                                  const Dims& dims) const {
  const obs::ScopedSpan span("codec/zfp");
  obs::count("codec.zfp.bytes_in", data.size() * sizeof(double));
  if (data.size() != dims.count()) {
    throw std::invalid_argument("ZfpCompressor: data size does not match dims");
  }
  const unsigned rank = dims.rank();
  const BlockIndexer bi{dims, rank};
  const std::size_t bsize = bi.block_size();
  const std::uint8_t* perm = sequency_permutation(rank);

  BitWriter writer;
  // The one-byte field carries the precision (fixed precision) or the
  // rate (fixed rate); fixed accuracy uses the tolerance double instead.
  std::uint8_t precision_or_rate = 0;
  if (options_.mode == ZfpMode::kFixedPrecision) {
    precision_or_rate = static_cast<std::uint8_t>(options_.precision);
  } else if (options_.mode == ZfpMode::kFixedRate) {
    precision_or_rate = static_cast<std::uint8_t>(options_.rate);
  }
  std::vector<std::uint8_t> header;
  put(header, Header{kMagic, static_cast<std::uint8_t>(options_.mode),
                     precision_or_rate, 0, options_.tolerance, dims.nx,
                     dims.ny, dims.nz});
  for (const std::uint8_t byte : header) writer.put_bits(byte, 8);

  std::vector<double> block(bsize);
  std::vector<std::int64_t> fixed(bsize);
  std::vector<std::uint64_t> coeffs(bsize);

  const bool fixed_rate = options_.mode == ZfpMode::kFixedRate;
  const std::size_t block_budget =
      fixed_rate ? static_cast<std::size_t>(options_.rate) * bsize : kUnlimited;
  if (fixed_rate && block_budget < kMinBlockBudget) {
    throw std::invalid_argument(
        "ZfpCompressor: rate too low for this rank (need >= 14 bits/block)");
  }

  // An empty field has no blocks (gather_block needs every extent >= 1).
  const std::size_t blocks_z = data.empty() ? 0 : bi.blocks_z();
  for (std::size_t bz = 0; bz < blocks_z; ++bz) {
    for (std::size_t by = 0; by < bi.blocks_y(); ++by) {
      for (std::size_t bx = 0; bx < bi.blocks_x(); ++bx) {
        gather_block(data, bi, bx, by, bz, block.data());

        // frexp's exponent is monotone in |v|, so the largest |v| carries
        // the block exponent.
        double vmax = 0.0;
        bool finite = true;
        for (double v : block) {
          if (!std::isfinite(v)) finite = false;
          vmax = std::max(vmax, std::fabs(v));
        }
        const int emax = value_exponent(vmax);
        std::size_t used = 0;
        if (!finite || emax == -kExponentBias) {
          // All-zero (or non-finite, stored as zero) block: 1-bit flag.
          writer.put_bit(false);
          used = 1;
        } else {
          writer.put_bit(true);
          writer.put_bits(static_cast<std::uint64_t>(emax + kExponentBias),
                          12);
          used = 13;

          to_fixed(block.data(), fixed.data(), bsize, emax);
          forward_transform(fixed.data(), rank);
          for (std::size_t i = 0; i < bsize; ++i) {
            coeffs[i] = to_negabinary(fixed[perm[i]]);
          }
          used += encode_planes(
              writer, coeffs.data(), bsize, planes_for_block(options_, emax),
              fixed_rate ? block_budget - used : kUnlimited);
        }
        // Fixed rate: pad every block to exactly its budget.
        while (fixed_rate && used < block_budget) {
          const auto pad = static_cast<unsigned>(
              std::min<std::size_t>(64, block_budget - used));
          writer.put_bits(0, pad);
          used += pad;
        }
      }
    }
  }
  auto out = writer.take();
  obs::count("codec.zfp.bytes_out", out.size());
  return out;
}

std::vector<double> ZfpCompressor::decompress(
    std::span<const std::uint8_t> stream) const {
  const obs::ScopedSpan span("codec/zfp");
  StreamReader in(stream, {"ZFP"});
  // Every header field is checked before it sizes or steers anything.
  const auto header = in.read<Header>("header");
  if (header.magic != kMagic) {
    in.fail(CodecErrc::kMalformedStream, "bad magic");
  }
  // Precision and rate share a one-byte field, see compress().
  const ZfpOptions opts{static_cast<ZfpMode>(header.mode), header.precision,
                        header.tolerance, header.precision};
  if (const std::string why = options_error(opts); !why.empty()) {
    in.fail(CodecErrc::kMalformedStream, why);
  }

  const Dims dims{header.nx, header.ny, header.nz};
  const std::size_t cells = checked_cells(dims, "ZFP");
  // An empty field has no blocks (scatter_block needs every extent >= 1).
  if (cells == 0) return {};
  const unsigned rank = dims.rank();
  const BlockIndexer bi{dims, rank};
  const std::size_t bsize = bi.block_size();
  const std::uint8_t* perm = sequency_permutation(rank);

  const bool fixed_rate = opts.mode == ZfpMode::kFixedRate;
  const std::size_t block_budget =
      fixed_rate ? static_cast<std::size_t>(opts.rate) * bsize : kUnlimited;
  if (fixed_rate && block_budget < kMinBlockBudget) {
    in.fail(CodecErrc::kMalformedStream, "rate too low for this rank");
  }
  // A block costs at least its 1-bit flag, and exactly its budget in fixed
  // rate: cap the block count by the stream before `out` is sized.
  BitReader reader(in.rest());
  const std::size_t min_block_bits = fixed_rate ? block_budget : 1;
  if (bi.block_count() > reader.remaining_bits() / min_block_bits) {
    in.fail(fixed_rate ? CodecErrc::kTruncated : CodecErrc::kCountOverflow,
            "header claims " + std::to_string(bi.block_count()) +
                " blocks, the stream holds " +
                std::to_string(reader.remaining_bits()) + " bits");
  }

  std::vector<double> out(cells);
  std::vector<double> block(bsize);
  std::vector<std::uint64_t> fixed(bsize);
  std::vector<std::uint64_t> coeffs(bsize);

  // The reader's own bounds check is the one truncation check: it throws
  // std::out_of_range, reported here once per stream.
  try {
    for (std::size_t bz = 0; bz < bi.blocks_z(); ++bz) {
      for (std::size_t by = 0; by < bi.blocks_y(); ++by) {
        for (std::size_t bx = 0; bx < bi.blocks_x(); ++bx) {
          std::size_t used = 1;
          if (!reader.get_bit()) {
            std::fill(block.begin(), block.end(), 0.0);
          } else {
            const int emax =
                static_cast<int>(reader.get_bits(12)) - kExponentBias;
            used = 13;
            used += decode_planes(
                reader, coeffs.data(), bsize, planes_for_block(opts, emax),
                fixed_rate ? block_budget - used : kUnlimited);
            for (std::size_t i = 0; i < bsize; ++i) {
              fixed[perm[i]] = from_negabinary(coeffs[i]);
            }
            inverse_transform(fixed.data(), rank);
            from_fixed(fixed.data(), block.data(), bsize, emax);
          }
          // Fixed rate: skip the padding up to the block budget.
          if (fixed_rate) {
            reader.skip_bits(static_cast<unsigned>(block_budget - used));
          }
          scatter_block(out, bi, bx, by, bz, block.data());
        }
      }
    }
  } catch (const std::out_of_range&) {
    in.fail(CodecErrc::kTruncated, "stream ends inside block data at bit " +
                                       std::to_string(reader.bit_position()));
  }
  return out;
}

}  // namespace rmp::compress
