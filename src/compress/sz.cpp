#include "compress/sz.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "compress/bitstream.hpp"
#include "compress/codec_error.hpp"
#include "compress/huffman.hpp"
#include "compress/lossless.hpp"
#include "obs/obs.hpp"

namespace rmp::compress {
namespace {

constexpr std::uint32_t kMagic = 0x315A5352;  // "RSZ1"
// Values below this magnitude join the zero class in pointwise-relative
// mode (a relative bound is meaningless at denormal scale).
constexpr double kZeroClassThreshold = 1e-300;
// Block length for the SZ 1.4-style block-relative mode.
constexpr std::size_t kRelBlockSize = 1024;

struct Header {
  std::uint32_t magic;
  std::uint8_t mode;
  std::uint8_t quant_bits;
  std::uint16_t reserved;
  double bound;
  std::uint64_t nx, ny, nz;
};

std::size_t flat_index(std::size_t i, std::size_t j, std::size_t k,
                       const Dims& d) {
  return (i * d.ny + j) * d.nz + k;
}

struct QuantizedStream {
  std::vector<std::uint32_t> codes;
  std::vector<double> outliers;
};

// Per-point error bound: scalar in absolute mode, per-1024-block in
// block-relative mode.
struct BoundTable {
  std::vector<double> bounds;  // one entry per block
  bool per_block = false;      // false: bounds[0] applies everywhere

  double at(std::size_t n) const {
    return per_block ? bounds[n / kRelBlockSize] : bounds[0];
  }
};

// ---------------------------------------------------------------------------
// SZ 2.x-style regression predictor (SzPredictor::kHybrid)

// Prediction block edge per rank (SZ 2 uses 6^3 in 3D; larger 2D/1D
// blocks amortize the stored-coefficient overhead).
std::size_t regression_block_edge(unsigned rank) {
  switch (rank) {
    case 3: return 6;
    case 2: return 16;
    default: return 128;
  }
}

// Per-array regression model: for each prediction block, either Lorenzo
// (flag 0) or a fitted hyperplane v ~ b0 + b1*di + b2*dj + b3*dk in local
// block coordinates (flag 1, 4 coefficients).
struct RegressionModel {
  std::size_t edge = 0;
  std::size_t blocks_x = 1, blocks_y = 1, blocks_z = 1;
  std::vector<std::uint8_t> use_regression;  // one per block
  std::vector<double> coefficients;          // 4 per block (zeros if unused)

  std::size_t block_count() const { return blocks_x * blocks_y * blocks_z; }
  std::size_t block_of(std::size_t i, std::size_t j, std::size_t k) const {
    return ((i / edge) * blocks_y + (j / edge)) * blocks_z + (k / edge);
  }
  double predict(std::size_t i, std::size_t j, std::size_t k,
                 std::size_t block) const {
    const double* c = &coefficients[4 * block];
    return c[0] + c[1] * static_cast<double>(i % edge) +
           c[2] * static_cast<double>(j % edge) +
           c[3] * static_cast<double>(k % edge);
  }
};

// Fit the model on the original data and choose per block between the
// hyperplane and Lorenzo by comparing *estimated coded bits*: each
// residual costs ~log2(1 + |r| / eb) bits after quantization, and a
// regression block additionally pays for its four stored coefficients.
// (Plain SSE is a poor proxy: spiky data has huge SSE under Lorenzo but
// almost all-zero codes, which entropy coding loves.)
RegressionModel fit_regression_model(std::span<const double> data,
                                     const Dims& dims,
                                     const BoundTable& bounds) {
  RegressionModel model;
  model.edge = regression_block_edge(dims.rank());
  model.blocks_x = (dims.nx + model.edge - 1) / model.edge;
  model.blocks_y = (dims.ny + model.edge - 1) / model.edge;
  model.blocks_z = (dims.nz + model.edge - 1) / model.edge;
  model.use_regression.assign(model.block_count(), 0);
  model.coefficients.assign(4 * model.block_count(), 0.0);

  auto value = [&](std::size_t i, std::size_t j, std::size_t k) {
    return data[flat_index(i, j, k, dims)];
  };

  for (std::size_t bx = 0; bx < model.blocks_x; ++bx) {
    for (std::size_t by = 0; by < model.blocks_y; ++by) {
      for (std::size_t bz = 0; bz < model.blocks_z; ++bz) {
        const std::size_t i0 = bx * model.edge;
        const std::size_t j0 = by * model.edge;
        const std::size_t k0 = bz * model.edge;
        const std::size_t i1 = std::min(i0 + model.edge, dims.nx);
        const std::size_t j1 = std::min(j0 + model.edge, dims.ny);
        const std::size_t k1 = std::min(k0 + model.edge, dims.nz);
        const double count =
            static_cast<double>((i1 - i0) * (j1 - j0) * (k1 - k0));

        // Separable least squares on the product grid: per-axis centered
        // coordinates make the normal equations diagonal.
        double mean_i = 0, mean_j = 0, mean_k = 0, mean_v = 0;
        for (std::size_t i = i0; i < i1; ++i) mean_i += static_cast<double>(i - i0);
        for (std::size_t j = j0; j < j1; ++j) mean_j += static_cast<double>(j - j0);
        for (std::size_t k = k0; k < k1; ++k) mean_k += static_cast<double>(k - k0);
        mean_i /= static_cast<double>(i1 - i0);
        mean_j /= static_cast<double>(j1 - j0);
        mean_k /= static_cast<double>(k1 - k0);

        double sxx = 0, syy = 0, szz = 0;
        double sxv = 0, syv = 0, szv = 0;
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t j = j0; j < j1; ++j) {
            for (std::size_t k = k0; k < k1; ++k) {
              const double v = value(i, j, k);
              mean_v += v;
              const double di = static_cast<double>(i - i0) - mean_i;
              const double dj = static_cast<double>(j - j0) - mean_j;
              const double dk = static_cast<double>(k - k0) - mean_k;
              sxx += di * di;
              syy += dj * dj;
              szz += dk * dk;
              sxv += di * v;
              syv += dj * v;
              szv += dk * v;
            }
          }
        }
        mean_v /= count;
        const double b1 = sxx > 0 ? sxv / sxx : 0.0;
        const double b2 = syy > 0 ? syv / syy : 0.0;
        const double b3 = szz > 0 ? szv / szz : 0.0;
        const double b0 = mean_v - b1 * mean_i - b2 * mean_j - b3 * mean_k;

        // Residual comparison: estimated coded bits for regression vs
        // Lorenzo on the originals.
        double bits_regression = 0, bits_lorenzo = 0;
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t j = j0; j < j1; ++j) {
            for (std::size_t k = k0; k < k1; ++k) {
              const double v = value(i, j, k);
              const double eb =
                  std::max(bounds.at(flat_index(i, j, k, dims)),
                           1e-300);
              const double reg = b0 + b1 * (static_cast<double>(i - i0)) +
                                 b2 * (static_cast<double>(j - j0)) +
                                 b3 * (static_cast<double>(k - k0));
              bits_regression += std::log2(1.0 + std::fabs(v - reg) / eb);
              // Lorenzo on originals (approximation of the decoded-value
              // predictor, good enough for the selection decision).
              double lorenzo;
              switch (dims.rank()) {
                case 1:
                  lorenzo = i >= 2 ? 2.0 * value(i - 1, j, k) - value(i - 2, j, k)
                                   : (i == 1 ? value(0, j, k) : 0.0);
                  break;
                case 2: {
                  const double left = j > 0 ? value(i, j - 1, k) : 0.0;
                  const double up = i > 0 ? value(i - 1, j, k) : 0.0;
                  const double diag =
                      (i > 0 && j > 0) ? value(i - 1, j - 1, k) : 0.0;
                  lorenzo = left + up - diag;
                  break;
                }
                default: {
                  const double x = i > 0 ? value(i - 1, j, k) : 0.0;
                  const double y = j > 0 ? value(i, j - 1, k) : 0.0;
                  const double z = k > 0 ? value(i, j, k - 1) : 0.0;
                  const double xy = (i > 0 && j > 0) ? value(i - 1, j - 1, k) : 0.0;
                  const double xz = (i > 0 && k > 0) ? value(i - 1, j, k - 1) : 0.0;
                  const double yz = (j > 0 && k > 0) ? value(i, j - 1, k - 1) : 0.0;
                  const double xyz = (i > 0 && j > 0 && k > 0)
                                         ? value(i - 1, j - 1, k - 1)
                                         : 0.0;
                  lorenzo = x + y + z - xy - xz - yz + xyz;
                  break;
                }
              }
              bits_lorenzo += std::log2(1.0 + std::fabs(v - lorenzo) / eb);
            }
          }
        }

        const std::size_t block = model.block_of(i0, j0, k0);
        // Coefficients are stored as float32 (SZ 2 quantizes them too):
        // 4 x 32 = 128 bits of model overhead per block.  Prediction must
        // use the *rounded* values so encoder and decoder agree.
        if (bits_regression + 128.0 < bits_lorenzo) {
          model.use_regression[block] = 1;
          model.coefficients[4 * block + 0] =
              static_cast<double>(static_cast<float>(b0));
          model.coefficients[4 * block + 1] =
              static_cast<double>(static_cast<float>(b1));
          model.coefficients[4 * block + 2] =
              static_cast<double>(static_cast<float>(b2));
          model.coefficients[4 * block + 3] =
              static_cast<double>(static_cast<float>(b3));
        }
      }
    }
  }
  return model;
}

// ---------------------------------------------------------------------------
// The predictor walk quantize and dequantize share.
//
// visit(n, pred, i, j, k) is called once per element, after every
// neighbour its Lorenzo prediction reads, with that prediction computed
// from the decoded values in u; it stores the element's decoded value at
// u[n] and returns it.  The predictions, summed left to right:
//   rank 1:  2 u(i-1) - u(i-2)           (u(0) at i = 1, 0 at i = 0)
//   rank 2:  u(i,j-1) + u(i-1,j) - u(i-1,j-1)
//   rank 3:  x + y + z - xy - xz - yz + xyz   (x = u(i-1,j,k), ...)
// 1D fields are shaped {n, 1, 1}; order-2 Lorenzo leaves the second
// difference as the residual, so smooth signals quantize into a handful
// of bins.  A neighbour off the grid is a literal 0.0 in its operand
// position (SZ's convention: exact for constant-0 boundaries), so every
// prediction has one fixed operand order whatever the walk order.
//
// Each prediction -> quantize -> decoded value step depends on the one
// before it in the row, so one row is one serial chain.  The walk runs
// kChains independent rows element by element in lockstep, so the CPU
// overlaps their chains: in 3D the rows (i, j), (i+1, j-1), ... of one
// anti-diagonal of a kChains-plane group, in 2D the rows i, i+1, ... with
// each one element behind the row before it.  1D is a single chain.
constexpr std::size_t kChains = 4;

// One (i, j) row of a 3D walk; neighbour rows off the grid point at zeros.
struct Row3 {
  const double* pi;   // row (i-1, j)
  const double* pj;   // row (i, j-1)
  const double* pij;  // row (i-1, j-1)
  std::size_t n;      // flat index of (i, j, 0)
  std::size_t i, j;
};

template <std::size_t C, typename Visit>
void walk_rows(const Row3* rows, std::size_t nz, Visit& visit) {
  double z[C];  // u(i, j, k-1) of each row, carried in a register
  for (std::size_t c = 0; c < C; ++c) {
    const Row3& r = rows[c];
    z[c] = visit(r.n, r.pi[0] + r.pj[0] + 0.0 - r.pij[0] - 0.0 - 0.0 + 0.0,
                 r.i, r.j, 0);
  }
  for (std::size_t k = 1; k < nz; ++k) {
    [&]<std::size_t... c>(std::index_sequence<c...>) {
      ((z[c] = visit(rows[c].n + k,
                     rows[c].pi[k] + rows[c].pj[k] + z[c] - rows[c].pij[k] -
                         rows[c].pi[k - 1] - rows[c].pj[k - 1] +
                         rows[c].pij[k - 1],
                     rows[c].i, rows[c].j, k)),
       ...);
    }(std::make_index_sequence<C>{});
  }
}

// walk_rows for a run-time row count in [1, C].
template <std::size_t C, typename Visit>
void walk_rows_upto(const Row3* rows, std::size_t count, std::size_t nz,
                    Visit& visit) {
  if constexpr (C > 1) {
    if (count < C) return walk_rows_upto<C - 1>(rows, count, nz, visit);
  }
  walk_rows<C>(rows, nz, visit);
}

template <typename Visit>
void lorenzo_walk(const Dims& d, double* u, Visit&& visit) {
  if (d.count() == 0) return;
  switch (d.rank()) {
    case 1: {
      double before = visit(0, 0.0, 0, 0, 0);
      if (d.nx == 1) break;
      double last = visit(1, before, 1, 0, 0);
      for (std::size_t i = 2; i < d.nx; ++i) {
        const double next = visit(i, 2.0 * last - before, i, 0, 0);
        before = last;
        last = next;
      }
      break;
    }
    case 2: {
      const std::size_t ny = d.ny;
      for (std::size_t i0 = 0; i0 < d.nx; i0 += kChains) {
        const std::size_t rows = std::min(kChains, d.nx - i0);
        // Step s visits element s - g of row i0 + g.
        for (std::size_t s = 0; s + 1 < ny + rows; ++s) {
          const std::size_t g_end = std::min(rows, s + 1);
          for (std::size_t g = s >= ny ? s - ny + 1 : 0; g < g_end; ++g) {
            const std::size_t i = i0 + g, j = s - g, n = i * ny + j;
            const double left = j > 0 ? u[n - 1] : 0.0;
            const double up = i > 0 ? u[n - ny] : 0.0;
            const double diag = i > 0 && j > 0 ? u[n - ny - 1] : 0.0;
            visit(n, left + up - diag, i, j, 0);
          }
        }
      }
      break;
    }
    default: {
      const std::size_t ny = d.ny, nz = d.nz, plane = ny * nz;
      const std::vector<double> zeros(nz, 0.0);
      for (std::size_t i0 = 0; i0 < d.nx; i0 += kChains) {
        const std::size_t planes = std::min(kChains, d.nx - i0);
        // Step s walks row (i0 + g, s - g) of every plane g that has one.
        for (std::size_t s = 0; s + 1 < ny + planes; ++s) {
          Row3 rows[kChains];
          std::size_t count = 0;
          const std::size_t g_end = std::min(planes, s + 1);
          for (std::size_t g = s >= ny ? s - ny + 1 : 0; g < g_end; ++g) {
            const std::size_t i = i0 + g, j = s - g, n = (i * ny + j) * nz;
            rows[count++] = {i > 0 ? u + n - plane : zeros.data(),
                             j > 0 ? u + n - nz : zeros.data(),
                             i > 0 && j > 0 ? u + n - plane - nz
                                            : zeros.data(),
                             n, i, j};
          }
          walk_rows_upto<kChains>(rows, count, nz, visit);
        }
      }
      break;
    }
  }
}

// lorenzo_walk with visit(n, pred), where hybrid mode (`model` non-null)
// swaps in the regression prediction for the blocks it marked.
template <typename Visit>
void predictor_walk(const Dims& d, double* u, const RegressionModel* model,
                    Visit&& visit) {
  if (model == nullptr) {
    lorenzo_walk(d, u,
                 [&](std::size_t n, double pred, std::size_t, std::size_t,
                     std::size_t) { return visit(n, pred); });
    return;
  }
  lorenzo_walk(d, u, [&](std::size_t n, double pred, std::size_t i,
                         std::size_t j, std::size_t k) {
    const std::size_t block = model->block_of(i, j, k);
    return visit(n, model->use_regression[block]
                        ? model->predict(i, j, k, block)
                        : pred);
  });
}

// Quantize `data` against the bound table, producing codes.  Prediction
// runs on decoded values, so the walk keeps a decoded surrogate; it is
// freed on return, before the Huffman and LZ stages allocate theirs.
// `model`, when non-null, supplies regression predictions for the blocks
// it marked (SZ 2.x hybrid mode).
QuantizedStream quantize(std::span<const double> data, const Dims& dims,
                         const BoundTable& table, unsigned quant_bits,
                         const RegressionModel* model = nullptr) {
  QuantizedStream out;
  out.codes.resize(data.size());
  std::vector<double> decoded(data.size(), 0.0);

  const std::int64_t radius = std::int64_t{1} << (quant_bits - 1);
  // |std::round(r)| < radius exactly when |r| < radius - 0.5 (round half
  // away from zero); NaN fails the test as well.
  const double limit = static_cast<double>(radius) - 0.5;
  double* u = decoded.data();
  std::uint32_t* codes = out.codes.data();

  predictor_walk(dims, u, model, [&](std::size_t n, double pred) {
    const double bound = table.at(n);
    const double step = 2.0 * bound;
    const double v = data[n];
    const double r = (v - pred) / step;
    if (std::fabs(r) < limit) {
      // std::round(r) without the libm call: truncate (r - q is exact),
      // then carry a half away from zero.
      auto q = static_cast<std::int64_t>(r);
      const double frac = r - static_cast<double>(q);
      q += static_cast<int>(frac >= 0.5) - static_cast<int>(frac <= -0.5);
      const double rec = pred + static_cast<double>(q) * step;
      if (std::fabs(rec - v) <= bound && std::isfinite(rec)) {
        codes[n] = static_cast<std::uint32_t>(q + radius);
        return u[n] = rec;
      }
    }
    codes[n] = 0;  // miss: store verbatim
    return u[n] = v;
  });

  // Outliers in scan order (the walk visits rows out of order).
  for (std::size_t n = 0; n < data.size(); ++n) {
    if (codes[n] == 0) out.outliers.push_back(data[n]);
  }
  return out;
}

std::vector<double> dequantize(const QuantizedStream& qs, const Dims& dims,
                               const BoundTable& table, unsigned quant_bits,
                               const RegressionModel* model = nullptr) {
  std::vector<double> decoded(dims.count(), 0.0);
  const std::int64_t radius = std::int64_t{1} << (quant_bits - 1);
  double* u = decoded.data();
  const std::uint32_t* codes = qs.codes.data();

  // Outliers go in first, in scan order; the walk leaves them in place.
  std::size_t outlier_index = 0;
  for (std::size_t n = 0; n < decoded.size(); ++n) {
    if (codes[n] != 0) continue;
    if (outlier_index >= qs.outliers.size()) {
      throw CodecError(CodecErrc::kMalformedStream,
                       "SZ decode: outlier list exhausted");
    }
    u[n] = qs.outliers[outlier_index++];
  }

  predictor_walk(dims, u, model, [&](std::size_t n, double pred) {
    const std::uint32_t code = codes[n];
    if (code != 0) {
      const auto q = static_cast<std::int64_t>(code) - radius;
      u[n] = pred + static_cast<double>(q) * (2.0 * table.at(n));
    }
    return u[n];
  });
  return decoded;
}

// Block-relative bound table: eb_block = rel * max|v| over each block of
// kRelBlockSize values.  All-zero blocks fall back to the global range so
// the step stays positive (value-range-relative semantics).
BoundTable block_relative_bounds(std::span<const double> data, double rel) {
  BoundTable table;
  table.per_block = true;
  double global_max = 0.0;
  for (double v : data) {
    if (std::isfinite(v)) global_max = std::max(global_max, std::fabs(v));
  }
  const std::size_t blocks = (data.size() + kRelBlockSize - 1) / kRelBlockSize;
  table.bounds.reserve(std::max<std::size_t>(blocks, 1));
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * kRelBlockSize;
    const std::size_t end = std::min(begin + kRelBlockSize, data.size());
    double block_max = 0.0;
    for (std::size_t n = begin; n < end; ++n) {
      if (std::isfinite(data[n])) {
        block_max = std::max(block_max, std::fabs(data[n]));
      }
    }
    const double basis = block_max > 0.0 ? block_max : global_max;
    table.bounds.push_back(basis > 0.0 ? rel * basis : 1.0);
  }
  if (table.bounds.empty()) table.bounds.push_back(1.0);
  return table;
}

// A u64 element count, then the elements.
template <typename T>
void put_counted(std::vector<std::uint8_t>& out, const std::vector<T>& values) {
  put(out, std::uint64_t{values.size()});
  put(out, values);
}

std::vector<std::uint8_t> pack_bits(const std::vector<bool>& bits) {
  std::vector<std::uint8_t> bytes((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) bytes[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return bytes;
}

std::vector<bool> unpack_bits(std::span<const std::uint8_t> bytes,
                              std::size_t count) {
  std::vector<bool> bits(count, false);
  for (std::size_t i = 0; i < count; ++i) {
    bits[i] = (bytes[i / 8] >> (i % 8)) & 1;
  }
  return bits;
}

// Model (de)serialization: edge, block grid, flag bitmap, then 4 float32
// coefficients per regression block in block order.  read_model validates
// the declared geometry against `dims` before allocating anything
// block-count-sized.
void append_model(std::vector<std::uint8_t>& payload,
                  const RegressionModel& model) {
  put(payload, std::array<std::uint64_t, 4>{model.edge, model.blocks_x,
                                            model.blocks_y, model.blocks_z});
  std::vector<bool> flags(model.use_regression.begin(),
                          model.use_regression.end());
  put(payload, pack_bits(flags));
  for (std::size_t b = 0; b < model.block_count(); ++b) {
    if (model.use_regression[b]) {
      // Coefficients were rounded to float32 at fit time, so this is
      // lossless with respect to the predictions both sides compute.
      for (int c = 0; c < 4; ++c) {
        put(payload, static_cast<float>(model.coefficients[4 * b + c]));
      }
    }
  }
}

RegressionModel read_model(StreamReader& in, const Dims& dims) {
  const auto grid =
      in.read<std::array<std::uint64_t, 4>>("regression geometry");
  RegressionModel model{grid[0], grid[1], grid[2], grid[3], {}, {}};
  // The block grid is fully determined by dims and edge; a mismatched
  // declaration is hostile and must not size any allocation.
  if (model.edge == 0 ||
      model.blocks_x != (dims.nx + model.edge - 1) / model.edge ||
      model.blocks_y != (dims.ny + model.edge - 1) / model.edge ||
      model.blocks_z != (dims.nz + model.edge - 1) / model.edge) {
    in.fail(CodecErrc::kMalformedStream, "regression model geometry mismatch");
  }
  const std::size_t count = model.block_count();
  const auto flags =
      unpack_bits(in.block((count + 7) / 8, "regression flags"), count);
  model.use_regression.assign(count, 0);
  model.coefficients.assign(4 * count, 0.0);
  for (std::size_t b = 0; b < count; ++b) {
    if (flags[b]) {
      model.use_regression[b] = 1;
      for (int c = 0; c < 4; ++c) {
        model.coefficients[4 * b + c] =
            static_cast<double>(in.read<float>("regression coefficients"));
      }
    }
  }
  return model;
}

// Why `opts` cannot drive the codec, or "" if it can.  The constructor
// raises it as std::invalid_argument, the decoder (for a stream header) as
// a CodecError.
std::string options_error(const SzOptions& opts) {
  if (static_cast<unsigned>(opts.mode) >
      static_cast<unsigned>(SzMode::kBlockRelative)) {
    return "unknown mode";
  }
  if (static_cast<unsigned>(opts.predictor) >
      static_cast<unsigned>(SzPredictor::kHybrid)) {
    return "unknown predictor";
  }
  if (opts.quant_bits < 2 || opts.quant_bits > 30) {
    return "quant_bits must be in 2..30";
  }
  if (!(std::isfinite(opts.bound) && opts.bound > 0.0)) {
    return "bound must be finite and positive";
  }
  return "";
}

}  // namespace

SzCompressor::SzCompressor(SzOptions options) : options_(options) {
  if (const std::string why = options_error(options_); !why.empty()) {
    throw std::invalid_argument("SzCompressor: " + why);
  }
}

std::string SzCompressor::name() const {
  switch (options_.mode) {
    case SzMode::kAbsolute: return "sz-abs";
    case SzMode::kPointwiseRelative: return "sz-pwrel";
    case SzMode::kBlockRelative: return "sz-rel";
  }
  return "sz";
}

std::vector<std::uint8_t> SzCompressor::compress(std::span<const double> data,
                                                 const Dims& dims) const {
  const obs::ScopedSpan span("codec/sz");
  obs::count("codec.sz.bytes_in", data.size() * sizeof(double));
  if (data.size() != dims.count()) {
    throw std::invalid_argument("SzCompressor: data size does not match dims");
  }

  std::vector<std::uint8_t> payload;
  put(payload, Header{kMagic, static_cast<std::uint8_t>(options_.mode),
                      static_cast<std::uint8_t>(options_.quant_bits),
                      static_cast<std::uint16_t>(options_.predictor),
                      options_.bound, dims.nx, dims.ny, dims.nz});

  std::vector<double> work;
  std::vector<bool> zero_mask, sign_mask;
  std::span<const double> to_quantize = data;
  BoundTable table;
  table.bounds = {options_.bound};

  if (options_.mode == SzMode::kBlockRelative) {
    table = block_relative_bounds(data, options_.bound);
  } else if (options_.mode == SzMode::kPointwiseRelative) {
    // log2 transform: a relative bound on v becomes an absolute bound on
    // log2|v|.  Zero-class values are masked out and reproduced exactly.
    table.bounds = {std::log2(1.0 + options_.bound)};
    work.resize(data.size());
    zero_mask.resize(data.size());
    sign_mask.resize(data.size());
    double previous_log = 0.0;
    for (std::size_t n = 0; n < data.size(); ++n) {
      const double v = data[n];
      if (!std::isfinite(v) || std::fabs(v) < kZeroClassThreshold) {
        zero_mask[n] = true;
        sign_mask[n] = false;
        // Keep the prediction chain smooth through masked points.
        work[n] = previous_log;
      } else {
        sign_mask[n] = v < 0.0;
        work[n] = std::log2(std::fabs(v));
        previous_log = work[n];
      }
    }
    to_quantize = work;
  }

  RegressionModel model;
  const bool hybrid = options_.predictor == SzPredictor::kHybrid;
  if (hybrid) {
    model = fit_regression_model(to_quantize, dims, table);
  }

  QuantizedStream qs;
  {
    const obs::ScopedSpan qspan("codec/sz/quantize");
    qs = quantize(to_quantize, dims, table, options_.quant_bits,
                  hybrid ? &model : nullptr);
  }

  std::vector<std::uint8_t> code_bytes;
  {
    const obs::ScopedSpan hspan("codec/sz/huffman");
    code_bytes = huffman_encode(qs.codes);
  }
  put_counted(payload, code_bytes);
  put_counted(payload, qs.outliers);
  if (options_.mode == SzMode::kBlockRelative) {
    put_counted(payload, table.bounds);
  }
  if (hybrid) {
    append_model(payload, model);
  }

  if (options_.mode == SzMode::kPointwiseRelative) {
    put_counted(payload, pack_bits(zero_mask));
    put_counted(payload, pack_bits(sign_mask));
    // Masked points decode to 0.0 by default; any masked point whose value
    // is not exactly zero (tiny denormals, NaN/Inf) is stored verbatim as a
    // (position, value) exception so the round trip stays faithful.
    std::vector<std::uint64_t> exact_pos;
    std::vector<double> exact_val;
    for (std::size_t n = 0; n < data.size(); ++n) {
      if (zero_mask[n] && !(data[n] == 0.0)) {
        exact_pos.push_back(n);
        exact_val.push_back(data[n]);
      }
    }
    put_counted(payload, exact_pos);
    put(payload, exact_val);
  }

  std::vector<std::uint8_t> out;
  {
    const obs::ScopedSpan lspan("codec/sz/lossless");
    out = lossless_compress(payload);
  }
  obs::count("codec.sz.bytes_out", out.size());
  return out;
}

std::vector<double> SzCompressor::decompress(
    std::span<const std::uint8_t> stream) const {
  const obs::ScopedSpan span("codec/sz");
  std::vector<std::uint8_t> payload;
  {
    const obs::ScopedSpan lspan("codec/sz/unlossless");
    payload = lossless_decompress(stream);
  }
  StreamReader in(payload, {"SZ"});

  const auto header = in.read<Header>("header");
  if (header.magic != kMagic) {
    in.fail(CodecErrc::kMalformedStream, "bad magic");
  }
  const SzOptions opts{static_cast<SzMode>(header.mode), header.bound,
                       header.quant_bits,
                       static_cast<SzPredictor>(header.reserved)};
  if (const std::string why = options_error(opts); !why.empty()) {
    in.fail(CodecErrc::kMalformedStream, why);
  }
  const Dims dims{header.nx, header.ny, header.nz};
  const std::size_t cells = checked_cells(dims, "SZ");

  QuantizedStream qs;
  const auto code_size = in.read<std::uint64_t>("Huffman size");
  {
    const obs::ScopedSpan hspan("codec/sz/unhuffman");
    qs.codes = huffman_decode(in.block(code_size, "Huffman codes"));
  }
  if (qs.codes.size() != cells) {
    in.fail(CodecErrc::kMalformedStream, "code count mismatch");
  }
  qs.outliers =
      in.array<double>(in.read<std::uint64_t>("outlier count"), "outliers");

  BoundTable table;
  table.bounds = {opts.bound};
  if (opts.mode == SzMode::kPointwiseRelative) {
    table.bounds = {std::log2(1.0 + opts.bound)};
  } else if (opts.mode == SzMode::kBlockRelative) {
    table.bounds =
        in.array<double>(in.read<std::uint64_t>("bound count"), "bounds");
    // Every element indexes bounds[n / kRelBlockSize]: an undersized
    // table would read out of range during dequantization.
    if (table.bounds.empty() ||
        table.bounds.size() < (cells + kRelBlockSize - 1) / kRelBlockSize) {
      in.fail(CodecErrc::kMalformedStream,
              "bound table does not cover the grid");
    }
    // block_relative_bounds writes rel * max|v|, which is >= 0 (+inf on
    // overflow); a negative or NaN entry would scale its block's values.
    if (!std::all_of(table.bounds.begin(), table.bounds.end(),
                     [](double b) { return b >= 0.0; })) {
      in.fail(CodecErrc::kMalformedStream, "bound table entry is not >= 0");
    }
    table.per_block = true;
  }
  const bool hybrid = opts.predictor == SzPredictor::kHybrid;
  const RegressionModel model =
      hybrid ? read_model(in, dims) : RegressionModel{};

  std::vector<double> decoded;
  {
    const obs::ScopedSpan qspan("codec/sz/dequantize");
    decoded = dequantize(qs, dims, table, opts.quant_bits,
                         hybrid ? &model : nullptr);
  }

  if (opts.mode == SzMode::kPointwiseRelative) {
    // Each mask must cover the grid before unpack_bits reads it.
    auto read_mask = [&](const char* size_field, const char* field) {
      const auto size = in.read<std::uint64_t>(size_field);
      if (size < (cells + 7) / 8) {
        in.fail(CodecErrc::kMalformedStream,
                std::string(field) + " does not cover the grid");
      }
      return unpack_bits(in.block(size, field), cells);
    };
    const auto zero_mask = read_mask("zero mask size", "zero mask");
    const auto sign_mask = read_mask("sign mask size", "sign mask");
    const auto exact_count = in.read<std::uint64_t>("exception count");
    const auto exact_pos =
        in.array<std::uint64_t>(exact_count, "exception positions");
    const auto exact_val = in.array<double>(exact_count, "exception values");

    // The quantized stream holds log2 magnitudes; rebuild the values.
    // Masked points are exactly 0.0 unless overridden by an exception.
    for (std::size_t n = 0; n < dims.count(); ++n) {
      if (zero_mask[n]) {
        decoded[n] = 0.0;
      } else {
        const double magnitude = std::exp2(decoded[n]);
        decoded[n] = sign_mask[n] ? -magnitude : magnitude;
      }
    }
    for (std::size_t e = 0; e < exact_count; ++e) {
      if (exact_pos[e] >= decoded.size()) {
        in.fail(CodecErrc::kMalformedStream, "exception position out of range");
      }
      decoded[exact_pos[e]] = exact_val[e];
    }
  }
  return decoded;
}

}  // namespace rmp::compress
