#include "core/parallel_compress.hpp"

#include <stdexcept>

#include "core/preconditioner.hpp"
#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "parallel/thread_pool.hpp"

namespace rmp::core {
namespace {

// Read and validate the slab count from the meta section.  The container
// may come off disk, so the value is untrusted: 0 would silently decode
// an all-zero field, and a huge value would drive unbounded section
// lookups -- both are malformed, not crashes.
std::size_t validated_slab_count(const io::Container& container,
                                 const char* who) {
  const auto& meta_section = require_section(container, "meta", who);
  std::vector<std::uint64_t> values;
  try {
    values = bytes_to_u64s(meta_section.bytes);
  } catch (const std::exception&) {
    throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                             std::string(who) + ": meta does not parse",
                             "meta");
  }
  if (values.empty()) {
    throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                             std::string(who) + ": meta is empty", "meta");
  }
  const std::uint64_t slabs = values[0];
  if (slabs == 0 || slabs > container.nz) {
    throw io::ContainerError(
        io::ContainerErrc::kSectionMalformed,
        std::string(who) + ": slab count " + std::to_string(slabs) +
            " outside [1, nz=" + std::to_string(container.nz) + "]",
        "meta");
  }
  return static_cast<std::size_t>(slabs);
}

// Per-slab loops run serially when the caller asks for one thread,
// otherwise on the shared pool (parallel::global_pool(), or the pool a
// ScopedPoolOverride installed) -- no per-call thread spawn/join.
void for_each_slab(std::size_t slabs, std::size_t threads,
                   const std::function<void(std::size_t)>& body) {
  if (threads <= 1) {
    for (std::size_t s = 0; s < slabs; ++s) body(s);
  } else {
    parallel::parallel_for(slabs, body);
  }
}

}  // namespace

io::Container compress_field_parallel(const sim::Field& field,
                                      const compress::Compressor& codec,
                                      const ParallelCompressOptions& options) {
  if (field.empty()) {
    throw std::invalid_argument("compress_field_parallel: empty field");
  }
  const std::size_t slabs =
      std::max<std::size_t>(1, std::min(options.slabs, field.nz()));
  const auto extents = even_split(field.nz(), slabs);

  io::Container container;
  container.method = "parallel-slabs";
  container.nx = field.nx();
  container.ny = field.ny();
  container.nz = field.nz();

  std::vector<std::vector<std::uint8_t>> slab_bytes(slabs);
  for_each_slab(slabs, options.threads, [&](std::size_t s) {
    const auto [z_low, z_high] = extents[s];
    const std::size_t local_nz = z_high - z_low;
    std::vector<double> slab;
    slab.reserve(field.nx() * field.ny() * local_nz);
    for (std::size_t i = 0; i < field.nx(); ++i) {
      for (std::size_t j = 0; j < field.ny(); ++j) {
        for (std::size_t k = z_low; k < z_high; ++k) {
          slab.push_back(field.at(i, j, k));
        }
      }
    }
    slab_bytes[s] =
        codec.compress(slab, {field.nx(), field.ny(), local_nz});
  });

  for (std::size_t s = 0; s < slabs; ++s) {
    container.add("slab" + std::to_string(s), std::move(slab_bytes[s]));
  }
  const std::uint64_t meta[1] = {slabs};
  container.add("meta", u64s_to_bytes(meta));
  return container;
}

sim::Field decompress_field_parallel(const io::Container& container,
                                     const compress::Compressor& codec,
                                     std::size_t threads) {
  const std::size_t slabs =
      validated_slab_count(container, "decompress_field_parallel");
  const auto extents = even_split(container.nz, slabs);

  sim::Field out(container.nx, container.ny, container.nz);

  for_each_slab(slabs, threads, [&](std::size_t s) {
    const std::string slab_name = "slab" + std::to_string(s);
    const auto& section =
        require_section(container, slab_name, "decompress_field_parallel");
    const auto slab = codec.decompress(section.bytes);
    const auto [z_low, z_high] = extents[s];
    const std::size_t local_nz = z_high - z_low;
    if (slab.size() != container.nx * container.ny * local_nz) {
      throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                               "decompress_field_parallel: bad slab size",
                               slab_name);
    }
    // Slab Z-ranges tile [0, nz) without overlap, so every (i, j, k)
    // below is written by exactly one task -- no lock needed, and decode
    // scales with the slab count.
    std::size_t n = 0;
    for (std::size_t i = 0; i < container.nx; ++i) {
      for (std::size_t j = 0; j < container.ny; ++j) {
        for (std::size_t k = z_low; k < z_high; ++k, ++n) {
          out.at(i, j, k) = slab[n];
        }
      }
    }
  });
  return out;
}

std::size_t slab_count(const io::Container& container) {
  return validated_slab_count(container, "slab_count");
}

SlabView decompress_slab(const io::Container& container,
                         const compress::Compressor& codec,
                         std::size_t slab) {
  const std::size_t slabs = slab_count(container);
  if (slab >= slabs) {
    throw std::out_of_range("decompress_slab: slab index out of range");
  }
  const auto extents = even_split(container.nz, slabs);
  const std::string slab_name = "slab" + std::to_string(slab);
  const auto& section =
      require_section(container, slab_name, "decompress_slab");
  const auto values = codec.decompress(section.bytes);
  const auto [z_low, z_high] = extents[slab];
  const std::size_t local_nz = z_high - z_low;
  if (values.size() != container.nx * container.ny * local_nz) {
    throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                             "decompress_slab: bad slab size", slab_name);
  }
  return {sim::Field::from_data(container.nx, container.ny, local_nz,
                                values),
          z_low};
}

}  // namespace rmp::core
