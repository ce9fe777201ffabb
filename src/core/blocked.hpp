// Partitioned-matrix preconditioning (paper future work §VII, "implement
// the proposed reduced methods in partitioned matrix"): split the
// canonical m x n matrix into row blocks and fit any reduced model
// (ReducedModelPreconditioner) on each block independently.  Blocks
// parallelize, each block's k adapts to local structure, and its spectral
// work drops from O(m n^2) to O((m/p) n^2).
//
// Layout: block b's model sections, named "<section><b>", in block
// order; then one "delta" of the whole field at delta grade, so the codec
// keeps the 3D predictor context; then "meta" = {count, meta_0...,
// meta_{count-1}}.  Block b is rows even_split(m, count)[b] of
// matrix_shape(header), fitted as a (rows x n x 1) field.
//
// Registry names: "pca-part" is the stored name of blocked PCA, and
// "blocked-pca" resolves to it; "blocked-svd", "blocked-wavelet", ...
// Archives written before blocks shared this layout (one nested
// container per block in "block<b>", meta {count, m, n}) still decode.
#pragma once

#include <memory>

#include "core/preconditioner.hpp"

namespace rmp::core {

class BlockedPreconditioner final : public Preconditioner {
 public:
  /// `inner` is resolved by name and must not itself be blocked or a
  /// cascade.  An inner without a reduced model (identity, raw,
  /// duomodel) only decodes older archives: encode throws
  /// std::invalid_argument.
  explicit BlockedPreconditioner(const std::string& inner,
                                 std::size_t partitions = 4);

  std::string name() const override;

  io::Container encode(const sim::Field& field, const CodecPair& codecs,
                       EncodeStats* stats) const override;
  sim::Field decode(const io::Container& container, const CodecPair& codecs,
                    const sim::Field* external_reduced) const override;

 private:
  /// The older layout: one nested inner container per block.
  sim::Field decode_nested(const io::Container& container,
                           const CodecPair& codecs) const;

  std::string inner_name_;
  std::size_t partitions_;
  std::unique_ptr<Preconditioner> inner_;
  /// inner_ as a reduced model; null when it has none.
  const ReducedModelPreconditioner* model_;
};

}  // namespace rmp::core
