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
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <utility>
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
/// duomodel, pca, svd, wavelet, pca-part (blocked PCA), tucker.
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

/// Decode the "delta" section as a field of the container's shape.  A
/// stream holding anything but nx*ny*nz cells (or a shape whose product
/// overflows) raises io::ContainerError(kSectionMalformed, "delta").
sim::Field decode_delta(const io::Container& container,
                        const CodecPair& codecs, const char* decoder);

/// The "meta" section as exactly `words` u64s; an absent section is
/// kMissingSection, any other length kSectionMalformed on "meta".
std::vector<std::uint64_t> read_meta(const io::Container& container,
                                     std::size_t words, const char* decoder);

/// delta[n] = field[n] - reconstruction[n] (a fit's delta) and
/// out[n] += reconstruction[n] (a rebuild).  The spans must have one
/// length: callers check stream-controlled shapes first.
void write_delta(std::span<const double> field,
                 std::span<const double> reconstruction,
                 std::span<double> delta);
void add_reconstruction(std::span<double> out,
                        std::span<const double> reconstruction);

/// The sections one reduced model reads back.  A whole-field archive
/// stores them under the model's own names; the blocked layout
/// (core/blocked.hpp) stores block b's as "<name><b>".  Lookups add that
/// suffix, and every error names the section as stored.
class ModelSections {
 public:
  ModelSections(const io::Container& container, std::string suffix,
                const char* decoder)
      : container_(container), suffix_(std::move(suffix)), decoder_(decoder) {}

  /// The section's bytes; an absent section is kMissingSection.
  std::span<const std::uint8_t> operator[](const std::string& name) const;

  /// `name` decompressed by `codec`, holding exactly the product of
  /// `shape` values (checked before the caller shapes them).
  std::vector<double> values(const std::string& name,
                             const compress::Compressor& codec,
                             std::initializer_list<std::uint64_t> shape) const;

  /// Require the product of `shape` to be `cells` without overflowing.
  void require_cells(const std::string& name,
                     std::initializer_list<std::uint64_t> shape,
                     std::size_t cells) const;

  /// Throw io::ContainerError(kSectionMalformed) naming section `name`.
  [[noreturn]] void malformed(const std::string& name,
                              const std::string& what) const;

 private:
  const io::Container& container_;
  std::string suffix_;
  const char* decoder_;
};

/// What a reduced model's fit stores: its sections in archive order and
/// its meta words.
struct ModelFit {
  std::vector<io::Section> sections;
  std::vector<std::uint64_t> meta;
};

/// A preconditioner that is one reduced model (Fig. 5).  Each method
/// writes only its fit and its rebuild; encode() and decode() are the
/// shared plumbing: the spans, the container with its delta, the delta
/// decode and a checked read of the model's meta words.  The blocked
/// wrapper (core/blocked.hpp) runs the same two functions per row block.
class ReducedModelPreconditioner : public Preconditioner {
 public:
  io::Container encode(const sim::Field& field, const CodecPair& codecs,
                       EncodeStats* stats) const final;
  sim::Field decode(const io::Container& container, const CodecPair& codecs,
                    const sim::Field* external_reduced) const final;

  /// Fit the reduced model of `field`: return its sections and exactly
  /// meta_words() meta words, and write field - reconstruction into
  /// `delta` (field.size() cells).
  virtual ModelFit fit(const sim::Field& field, const CodecPair& codecs,
                       std::span<double> delta) const = 0;

  /// Add the reconstruction of the `dims`-shaped field the fit saw into
  /// `out` (dims.count() cells) in place.  `meta` is the fit's words, or
  /// empty when advisory meta is absent.  Damage is io::ContainerError.
  virtual void rebuild(const ModelSections& sections,
                       std::span<const std::uint64_t> meta,
                       const compress::Dims& dims, const CodecPair& codecs,
                       std::span<double> out) const = 0;

  std::size_t meta_words() const noexcept { return meta_words_; }

 protected:
  /// `meta_advisory`: decode works without the "meta" section.
  explicit ReducedModelPreconditioner(std::size_t meta_words,
                                      bool meta_advisory = false)
      : meta_words_(meta_words), meta_advisory_(meta_advisory) {}

 private:
  std::size_t meta_words_;
  bool meta_advisory_;
};

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
