#include "core/preconditioner.hpp"

#include <stdexcept>

#include "compress/factory.hpp"
#include "obs/obs.hpp"

#include "core/blocked.hpp"
#include "core/cascade.hpp"
#include "core/identity.hpp"
#include "core/partitioned.hpp"
#include "core/pca.hpp"
#include "core/projection.hpp"
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

std::vector<double> traced_decompress(const compress::Compressor& codec,
                                      const char* stage,
                                      std::span<const std::uint8_t> bytes) {
  const obs::ScopedSpan span(stage);
  obs::count(std::string("decode.bytes.") + stage, bytes.size());
  return codec.decompress(bytes);
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

}  // namespace rmp::core
