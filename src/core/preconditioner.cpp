#include "core/preconditioner.hpp"

#include <stdexcept>

#include "compress/factory.hpp"
#include "io/container_error.hpp"
#include "la/matrix.hpp"
#include "obs/obs.hpp"

#include "core/blocked.hpp"
#include "core/cascade.hpp"
#include "core/identity.hpp"
#include "core/partitioned.hpp"
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
  // "blocked-<inner>" partitions the canonical matrix (core/blocked.hpp).
  if (name.rfind("blocked-", 0) == 0) {
    return std::make_unique<BlockedPreconditioner>(name.substr(8));
  }
  if (name == "identity") return std::make_unique<IdentityPreconditioner>();
  if (name == "raw") return std::make_unique<RawPreconditioner>();
  if (name == "one-base") return std::make_unique<OneBasePreconditioner>();
  if (name == "multi-base") return std::make_unique<MultiBasePreconditioner>();
  if (name == "duomodel") return std::make_unique<DuoModelPreconditioner>();
  if (name == "pca") return std::make_unique<PcaPreconditioner>();
  if (name == "svd") return std::make_unique<SvdPreconditioner>();
  if (name == "wavelet") return std::make_unique<WaveletPreconditioner>();
  if (name == "pca-part") {
    return std::make_unique<PartitionedPcaPreconditioner>();
  }
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

void delta_in_place(const sim::Field& field, std::span<double> values) {
  const auto original = field.flat();
  if (values.size() != original.size()) {
    throw std::logic_error("delta_in_place: reconstruction size mismatch");
  }
  for (std::size_t n = 0; n < values.size(); ++n) {
    values[n] = original[n] - values[n];
  }
}

sim::Field decode_delta(const io::Container& container,
                        const CodecPair& codecs, const char* decoder) {
  const io::Section& section = require_section(container, "delta", decoder);
  std::vector<double> values = codecs.delta->decompress(section.bytes);
  const std::size_t cells = la::checked_cells(
      la::checked_cells(container.nx, container.ny), container.nz);
  if (values.size() != cells) {
    throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                             std::string(decoder) + " decode: delta holds " +
                                 std::to_string(values.size()) +
                                 " cells, the header " +
                                 std::to_string(cells),
                             "delta");
  }
  return sim::Field::from_data(container.nx, container.ny, container.nz,
                               std::move(values));
}

void check_reconstruction_cells(const sim::Field& out, std::size_t cells,
                                const char* decoder) {
  if (cells != out.size()) {
    throw io::ContainerError(
        io::ContainerErrc::kSectionMalformed,
        std::string(decoder) + " decode: reduced model rebuilds " +
            std::to_string(cells) + " cells, the header " +
            std::to_string(out.size()));
  }
}

void add_reconstruction(sim::Field& out,
                        std::span<const double> reconstruction,
                        const char* decoder) {
  check_reconstruction_cells(out, reconstruction.size(), decoder);
  const auto values = out.flat();
  for (std::size_t n = 0; n < values.size(); ++n) {
    values[n] += reconstruction[n];
  }
}

}  // namespace rmp::core
