// The paper's central abstraction: a *preconditioner* identifies a latent
// reduced model of a field, stores that reduced representation together
// with the compressed delta (original minus the reconstruction from the
// reduced model), and can rebuild the field from the two (Fig. 5).
//
// encode() produces a self-contained io::Container whose `method` names
// the preconditioner; decode() inverts it.  Two codecs are involved, per
// §V-B: the reduced representation is compressed at original-data grade,
// the delta at the looser delta grade (its magnitude is much smaller).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compress/compressor.hpp"
#include "io/container.hpp"
#include "sim/field.hpp"

namespace rmp::core {

struct CodecPair {
  /// Codec for the reduced representation (paper: ZFP 16 bit / SZ 1e-5).
  const compress::Compressor* reduced;
  /// Codec for the delta (paper: ZFP 8 bit / SZ 1e-3).
  const compress::Compressor* delta;
};

/// Owning codec pair: one of the paper's two configurations.
struct Codecs {
  std::unique_ptr<compress::Compressor> reduced;
  std::unique_ptr<compress::Compressor> delta;
  CodecPair pair() const { return {reduced.get(), delta.get()}; }
};

/// "sz" (pw-rel 1e-5 reduced / 1e-3 delta) or "zfp" (fixed precision 16
/// reduced / 8 delta); throws std::invalid_argument for any other name.
Codecs make_codecs(const std::string& name);

struct EncodeStats {
  std::size_t reduced_bytes = 0;  ///< reduced-representation payload
  std::size_t delta_bytes = 0;    ///< compressed delta payload
  std::size_t total_bytes = 0;    ///< full container payload
  std::size_t original_bytes = 0;
  double compression_ratio = 0.0;
};

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// Stable identifier stored in the container ("one-base", "pca", ...).
  virtual std::string name() const = 0;

  /// Precondition and compress.  `stats`, when non-null, receives the
  /// size accounting used throughout the evaluation benches.
  virtual io::Container encode(const sim::Field& field,
                               const CodecPair& codecs,
                               EncodeStats* stats = nullptr) const = 0;

  /// Reconstruct the field.  `external_reduced` supplies a re-computed
  /// reduced model for methods that do not store theirs (DuoModel re-runs
  /// the light simulation instead of storing its output).
  virtual sim::Field decode(const io::Container& container,
                            const CodecPair& codecs,
                            const sim::Field* external_reduced = nullptr)
      const = 0;
};

/// Instantiate a preconditioner by its stable name; used to dispatch
/// decoding from Container::method.  Throws std::invalid_argument for
/// unknown names.
std::unique_ptr<Preconditioner> make_preconditioner(const std::string& name);

/// Names of every built-in preconditioner, in evaluation order:
/// identity, raw (lossless guard terminal), one-base, multi-base,
/// duomodel, pca, svd, wavelet, pca-part, tucker.
const std::vector<std::string>& preconditioner_names();

/// Fill `stats` from a finished container (helper for implementations).
void fill_stats(const io::Container& container, std::size_t element_count,
                EncodeStats* stats);

/// The shared encode tail of Fig. 5: a container for `method` with
/// `field`'s header, the `reduced` sections in archive order, then
/// "delta" (`delta` compressed at delta grade) and "meta".  `stats`
/// counts the reduced sections as reduced_bytes.
io::Container reduced_model_container(const std::string& method,
                                      const sim::Field& field,
                                      std::vector<io::Section> reduced,
                                      std::span<const double> delta,
                                      std::span<const std::uint64_t> meta,
                                      const CodecPair& codecs,
                                      EncodeStats* stats);

/// Turn a reconstruction of `field` into the delta, in place:
/// values[n] = field[n] - values[n].
void delta_in_place(const sim::Field& field, std::span<double> values);

/// Decode the "delta" section as a field of the container's shape.  A
/// stream holding anything but nx*ny*nz cells raises
/// io::ContainerError(kSectionMalformed, "delta").
sim::Field decode_delta(const io::Container& container,
                        const CodecPair& codecs, const char* decoder);

/// out[n] += reconstruction[n]; a reconstruction of any other length than
/// `out` raises io::ContainerError(kSectionMalformed).
void add_reconstruction(sim::Field& out,
                        std::span<const double> reconstruction,
                        const char* decoder);

/// The check add_reconstruction makes, for decoders that rebuild in
/// place: a reduced model of `cells` cells that is not `out`'s size raises
/// io::ContainerError(kSectionMalformed).
void check_reconstruction_cells(const sim::Field& out, std::size_t cells,
                                const char* decoder);

/// Fetch a required section or throw io::ContainerError(kMissingSection)
/// naming both the decoder and the absent section (helper for decoders).
const io::Section& require_section(const io::Container& container,
                                   const std::string& name,
                                   const char* decoder);

/// Codec call under an obs stage span ("reduced-compress",
/// "delta-compress", ...) with byte accounting, so per-stage cost shows up
/// in `rmpc --stats` regardless of which preconditioner ran the codec.
std::vector<std::uint8_t> traced_compress(const compress::Compressor& codec,
                                          const char* stage,
                                          std::span<const double> data,
                                          const compress::Dims& dims);

}  // namespace rmp::core
