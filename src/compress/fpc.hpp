// FPC-like lossless double-precision compressor (Burtscher &
// Ratanaworabhan, IEEE ToC 2009) -- the lossless comparator in the paper's
// Fig. 3 evaluation.
//
// Each value is predicted by two hash-table predictors, FCM and DFCM; the
// better prediction (more leading zero bytes after XOR) is selected with a
// 1-bit flag, a 3-bit leading-zero-byte count follows, and only the
// non-zero residual bytes are stored.
#pragma once

#include "compress/compressor.hpp"

namespace rmp::compress {

struct FpcOptions {
  /// Hash tables hold 2^table_bits entries each (paper runs "level 20").
  /// The stream carries it, so a legal 26 makes any stream, however
  /// short, allocate 1 GB of tables; FPC has no rmpc or rmpd path.
  unsigned table_bits = 20;
};

class FpcCompressor final : public Compressor {
 public:
  explicit FpcCompressor(FpcOptions options = {});

  std::string name() const override { return "fpc"; }
  bool lossless() const override { return true; }

  std::vector<std::uint8_t> compress(std::span<const double> data,
                                     const Dims& dims) const override;
  std::vector<double> decompress(
      std::span<const std::uint8_t> stream) const override;

 private:
  FpcOptions options_;
};

}  // namespace rmp::compress
