#include "core/identity.hpp"

#include <stdexcept>

#include "compress/lossless.hpp"
#include "core/serialize.hpp"
#include "obs/obs.hpp"

namespace rmp::core {
namespace {

compress::Dims field_dims(const sim::Field& f) {
  return {f.nx(), f.ny(), f.nz()};
}

}  // namespace

io::Container IdentityPreconditioner::encode(const sim::Field& field,
                                             const CodecPair& codecs,
                                             EncodeStats* stats) const {
  if (codecs.reduced == nullptr) {
    throw std::invalid_argument("identity encode: reduced codec required");
  }
  const obs::ScopedSpan span("precondition/identity");
  io::Container container;
  container.method = name();
  container.nx = field.nx();
  container.ny = field.ny();
  container.nz = field.nz();
  container.add("data",
                traced_compress(*codecs.reduced, "delta-compress",
                                field.flat(), field_dims(field)));
  fill_stats(container, field.size(), stats);
  if (stats != nullptr) {
    // The whole payload is "delta" in the identity case: there is no
    // reduced representation.
    stats->delta_bytes = stats->total_bytes;
    stats->reduced_bytes = 0;
  }
  return container;
}

sim::Field IdentityPreconditioner::decode(const io::Container& container,
                                          const CodecPair& codecs,
                                          const sim::Field*) const {
  return sim::Field::from_data(
      container.nx, container.ny, container.nz,
      ModelSections(container, "", "identity")
          .values("data", *codecs.reduced,
                  {container.nx, container.ny, container.nz}));
}

io::Container RawPreconditioner::encode(const sim::Field& field,
                                        const CodecPair&,
                                        EncodeStats* stats) const {
  const obs::ScopedSpan span("precondition/raw");
  io::Container container;
  container.method = name();
  container.nx = field.nx();
  container.ny = field.ny();
  container.nz = field.nz();
  container.add("data",
                compress::lossless_compress(doubles_to_bytes(field.flat())));
  fill_stats(container, field.size(), stats);
  if (stats != nullptr) {
    stats->delta_bytes = stats->total_bytes;
    stats->reduced_bytes = 0;
  }
  return container;
}

sim::Field RawPreconditioner::decode(const io::Container& container,
                                     const CodecPair&,
                                     const sim::Field*) const {
  const auto& section = require_section(container, "data", "raw");
  std::vector<double> values;
  try {
    values = bytes_to_doubles(compress::lossless_decompress(section.bytes));
  } catch (const std::exception& e) {
    throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                             std::string("raw decode: ") + e.what(), "data");
  }
  ModelSections(container, "", "raw")
      .require_cells("data", {container.nx, container.ny, container.nz},
                     values.size());
  return sim::Field::from_data(container.nx, container.ny, container.nz,
                               std::move(values));
}

}  // namespace rmp::core
