#include "core/preconditioner.hpp"

#include <stdexcept>

#include "compress/factory.hpp"
#include "io/container_error.hpp"
#include "obs/obs.hpp"

#include "core/blocked.hpp"
#include "core/cascade.hpp"
#include "core/identity.hpp"
#include "core/pca.hpp"
#include "core/projection.hpp"
#include "core/serialize.hpp"
#include "core/svd_precond.hpp"
#include "core/tucker.hpp"
#include "core/wavelet_precond.hpp"

namespace rmp::core {

Codecs make_codecs(const std::string& name) {
  if (name == "sz") {
    return {compress::make_sz_original(), compress::make_sz_delta()};
  }
  if (name == "zfp") {
    return {compress::make_zfp_original(), compress::make_zfp_delta()};
  }
  throw std::invalid_argument("unknown codec '" + name +
                              "' (expected sz or zfp)");
}

std::unique_ptr<Preconditioner> make_preconditioner(const std::string& name) {
  // "first>second" composes two stages (core/cascade.hpp).
  if (name.find('>') != std::string::npos) return make_cascade(name);
  // "blocked-<inner>" partitions the canonical matrix (core/blocked.hpp);
  // blocked PCA is stored as "pca-part".
  if (name.rfind("blocked-", 0) == 0) {
    return std::make_unique<BlockedPreconditioner>(name.substr(8));
  }
  if (name == "pca-part") return std::make_unique<BlockedPreconditioner>("pca");
  if (name == "identity") return std::make_unique<IdentityPreconditioner>();
  if (name == "raw") return std::make_unique<RawPreconditioner>();
  if (name == "one-base") return std::make_unique<OneBasePreconditioner>();
  if (name == "multi-base") return std::make_unique<MultiBasePreconditioner>();
  if (name == "duomodel") return std::make_unique<DuoModelPreconditioner>();
  if (name == "pca") return std::make_unique<PcaPreconditioner>();
  if (name == "svd") return std::make_unique<SvdPreconditioner>();
  if (name == "wavelet") return std::make_unique<WaveletPreconditioner>();
  if (name == "tucker") return std::make_unique<TuckerPreconditioner>();
  throw std::invalid_argument("make_preconditioner: unknown name " + name);
}

const std::vector<std::string>& preconditioner_names() {
  static const std::vector<std::string> names = {
      "identity", "raw",     "one-base", "multi-base", "duomodel",
      "pca",      "svd",     "wavelet",  "pca-part",   "tucker"};
  return names;
}

const io::Section& require_section(const io::Container& container,
                                   const std::string& name,
                                   const char* decoder) {
  const io::Section* section = container.find(name);
  if (section == nullptr) {
    throw io::ContainerError(io::ContainerErrc::kMissingSection,
                             std::string(decoder) +
                                 " decode: required section absent",
                             name);
  }
  return *section;
}

std::vector<std::uint8_t> traced_compress(const compress::Compressor& codec,
                                          const char* stage,
                                          std::span<const double> data,
                                          const compress::Dims& dims) {
  const obs::ScopedSpan span(stage);
  auto bytes = codec.compress(data, dims);
  obs::count(std::string("encode.bytes.") + stage, bytes.size());
  return bytes;
}

void fill_stats(const io::Container& container, std::size_t element_count,
                EncodeStats* stats) {
  if (stats == nullptr) return;
  stats->total_bytes = container.payload_bytes();
  stats->original_bytes = element_count * sizeof(double);
  stats->compression_ratio =
      stats->total_bytes > 0
          ? static_cast<double>(stats->original_bytes) /
                static_cast<double>(stats->total_bytes)
          : 0.0;
}

io::Container reduced_model_container(const std::string& method,
                                      const sim::Field& field,
                                      std::vector<io::Section> reduced,
                                      std::span<const double> delta,
                                      std::span<const std::uint64_t> meta,
                                      const CodecPair& codecs,
                                      EncodeStats* stats) {
  io::Container container;
  container.method = method;
  container.nx = field.nx();
  container.ny = field.ny();
  container.nz = field.nz();
  std::size_t reduced_bytes = 0;
  for (io::Section& section : reduced) {
    reduced_bytes += section.bytes.size();
    container.add(std::move(section.name), std::move(section.bytes));
  }
  const std::size_t delta_bytes =
      container
          .add("delta",
               traced_compress(*codecs.delta, "delta-compress", delta,
                               {field.nx(), field.ny(), field.nz()}))
          .bytes.size();
  container.add("meta", u64s_to_bytes(meta));

  fill_stats(container, field.size(), stats);
  if (stats != nullptr) {
    stats->reduced_bytes = reduced_bytes;
    stats->delta_bytes = delta_bytes;
  }
  return container;
}

void write_delta(std::span<const double> field,
                 std::span<const double> reconstruction,
                 std::span<double> delta) {
  if (reconstruction.size() != field.size() || delta.size() != field.size()) {
    throw std::logic_error("write_delta: reconstruction size mismatch");
  }
  for (std::size_t n = 0; n < delta.size(); ++n) {
    delta[n] = field[n] - reconstruction[n];
  }
}

sim::Field decode_delta(const io::Container& container,
                        const CodecPair& codecs, const char* decoder) {
  const io::Section& section = require_section(container, "delta", decoder);
  std::vector<double> values = codecs.delta->decompress(section.bytes);
  ModelSections(container, "", decoder)
      .require_cells("delta", {container.nx, container.ny, container.nz},
                     values.size());
  return sim::Field::from_data(container.nx, container.ny, container.nz,
                               std::move(values));
}

std::vector<std::uint64_t> read_meta(const io::Container& container,
                                     std::size_t words, const char* decoder) {
  auto meta = bytes_to_u64s(require_section(container, "meta", decoder).bytes);
  if (meta.size() != words) {
    throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                             std::string(decoder) + " decode: meta holds " +
                                 std::to_string(meta.size()) + " words, not " +
                                 std::to_string(words),
                             "meta");
  }
  return meta;
}

void add_reconstruction(std::span<double> out,
                        std::span<const double> reconstruction) {
  if (reconstruction.size() != out.size()) {
    throw std::logic_error("add_reconstruction: reconstruction size mismatch");
  }
  for (std::size_t n = 0; n < out.size(); ++n) out[n] += reconstruction[n];
}

std::span<const std::uint8_t> ModelSections::operator[](
    const std::string& name) const {
  return require_section(container_, name + suffix_, decoder_).bytes;
}

void ModelSections::malformed(const std::string& name,
                              const std::string& what) const {
  throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                           std::string(decoder_) + " decode: " + what,
                           name + suffix_);
}

void ModelSections::require_cells(const std::string& name,
                                  std::initializer_list<std::uint64_t> shape,
                                  std::size_t cells) const {
  std::size_t product = 1;
  for (const std::uint64_t extent : shape) {
    if (__builtin_mul_overflow(product, extent, &product)) {
      malformed(name, "shape overflows");
    }
  }
  if (product != cells) {
    malformed(name, "shape holds " + std::to_string(product) +
                        " cells, not " + std::to_string(cells));
  }
}

std::vector<double> ModelSections::values(
    const std::string& name, const compress::Compressor& codec,
    std::initializer_list<std::uint64_t> shape) const {
  std::vector<double> values = codec.decompress((*this)[name]);
  require_cells(name, shape, values.size());
  return values;
}

io::Container ReducedModelPreconditioner::encode(const sim::Field& field,
                                                 const CodecPair& codecs,
                                                 EncodeStats* stats) const {
  const std::string method = name();
  const obs::ScopedSpan span("precondition/" + method);
  std::vector<double> delta(field.size());
  ModelFit model = fit(field, codecs, delta);
  return reduced_model_container(method, field, std::move(model.sections),
                                 delta, model.meta, codecs, stats);
}

sim::Field ReducedModelPreconditioner::decode(const io::Container& container,
                                              const CodecPair& codecs,
                                              const sim::Field*) const {
  const std::string method = name();
  const obs::ScopedSpan span(method);
  std::vector<std::uint64_t> meta;
  if (!meta_advisory_ || container.find("meta") != nullptr) {
    meta = read_meta(container, meta_words_, method.c_str());
  }
  sim::Field out = decode_delta(container, codecs, method.c_str());
  rebuild(ModelSections(container, "", method.c_str()), meta,
          {container.nx, container.ny, container.nz}, codecs, out.flat());
  return out;
}

}  // namespace rmp::core
