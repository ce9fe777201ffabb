// Projection-based preconditioners from the Heat3d case study (§IV):
//
//  * OneBase  -- the global mid Z-plane is the reduced model; every plane
//    stores its delta against it (Algorithm 1).
//  * MultiBase -- the grid is split into Z slabs and each slab uses its
//    own local mid-plane, avoiding the broadcast at the cost of storing
//    one plane per slab.
//  * DuoModel -- the prior-work baseline: a low-resolution version of the
//    field stands in for the reduced model and is upsampled (linearly) to
//    compute the delta.  True DuoModel re-runs the light simulation at
//    decode time instead of storing it; `store_reduced = false`
//    reproduces that (decode then needs the externally re-computed
//    reduced field).
//
// All three require 3D fields (the paper notes 1D Wave is "not relevant"
// for projection).
#pragma once

#include <cstddef>

#include "core/preconditioner.hpp"

namespace rmp::core {

/// meta = {mid-plane index}, advisory: decode needs only the plane.
class OneBasePreconditioner final : public ReducedModelPreconditioner {
 public:
  OneBasePreconditioner() : ReducedModelPreconditioner(1, true) {}

  std::string name() const override { return "one-base"; }

  ModelFit fit(const sim::Field& field, const CodecPair& codecs,
               std::span<double> delta) const override;
  void rebuild(const ModelSections& sections,
               std::span<const std::uint64_t> meta, const compress::Dims& dims,
               const CodecPair& codecs, std::span<double> out) const override;
};

/// meta = {slab count}.
class MultiBasePreconditioner final : public ReducedModelPreconditioner {
 public:
  /// `slabs` = number of Z sub-domains, each with a local mid-plane.
  explicit MultiBasePreconditioner(std::size_t slabs = 4);

  std::string name() const override { return "multi-base"; }

  ModelFit fit(const sim::Field& field, const CodecPair& codecs,
               std::span<double> delta) const override;
  void rebuild(const ModelSections& sections,
               std::span<const std::uint64_t> meta, const compress::Dims& dims,
               const CodecPair& codecs, std::span<double> out) const override;

 private:
  std::size_t slabs_;
};

class DuoModelPreconditioner final : public Preconditioner {
 public:
  /// `factor` = resolution reduction per dimension.  `store_reduced`
  /// false reproduces the paper's DuoModel accounting (the reduced model
  /// is re-computed, not stored).
  explicit DuoModelPreconditioner(std::size_t factor = 4,
                                  bool store_reduced = true);

  std::string name() const override { return "duomodel"; }

  io::Container encode(const sim::Field& field, const CodecPair& codecs,
                       EncodeStats* stats) const override;

  /// DuoModel proper: the reduced model is the output of a *separately
  /// run* coarse simulation (any shape; it is upsampled linearly to the
  /// full grid for the delta).  encode() defaults to the downsampled
  /// field, which is the data-only approximation.
  io::Container encode_with_reduced(const sim::Field& field,
                                    const sim::Field& reduced,
                                    const CodecPair& codecs,
                                    EncodeStats* stats) const;

  sim::Field decode(const io::Container& container, const CodecPair& codecs,
                    const sim::Field* external_reduced) const override;

  /// The reduced model encode() uses by default: the downsampled field.
  sim::Field make_reduced(const sim::Field& field) const;

 private:
  std::size_t factor_;
  bool store_reduced_;
};

}  // namespace rmp::core
