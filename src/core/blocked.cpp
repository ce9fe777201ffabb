#include "core/blocked.hpp"

#include <stdexcept>

#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "io/container_error.hpp"
#include "la/matrix.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace rmp::core {

BlockedPreconditioner::BlockedPreconditioner(const std::string& inner,
                                             std::size_t partitions)
    : inner_name_(inner),
      partitions_(partitions),
      inner_(make_preconditioner(inner)) {
  if (partitions_ == 0) {
    throw std::invalid_argument("blocked: partitions must be positive");
  }
  if (inner.rfind("blocked-", 0) == 0 ||
      inner.find('>') != std::string::npos) {
    throw std::invalid_argument("blocked: inner stage cannot nest");
  }
}

io::Container BlockedPreconditioner::encode(const sim::Field& field,
                                            const CodecPair& codecs,
                                            EncodeStats* stats) const {
  const obs::ScopedSpan span("precondition/blocked");
  const auto [rows, cols] = matrix_shape(field);
  const std::size_t count = std::min(partitions_, rows);
  const auto blocks = even_split(rows, count);
  const auto flat = field.flat();

  io::Container container;
  container.method = name();
  container.nx = field.nx();
  container.ny = field.ny();
  container.nz = field.nz();

  // Blocks are independent: encode them on the shared pool, then append
  // the serialized results in block order so the container layout (and
  // its bytes) is the same at every thread count.
  std::vector<std::vector<std::uint8_t>> encoded(count);
  std::vector<EncodeStats> block_stats(count);
  parallel::parallel_for(count, [&](std::size_t b) {
    // Row block as a 2D field: contiguous in the canonical layout.
    const std::size_t block_rows = blocks[b].end - blocks[b].begin;
    sim::Field block = sim::Field::from_data(
        block_rows, cols, 1,
        std::vector<double>(flat.begin() + blocks[b].begin * cols,
                            flat.begin() + blocks[b].end * cols));
    encoded[b] = io::serialize(inner_->encode(block, codecs, &block_stats[b]));
  });

  std::size_t reduced_bytes = 0, delta_bytes = 0;
  for (std::size_t b = 0; b < count; ++b) {
    reduced_bytes += block_stats[b].reduced_bytes;
    delta_bytes += block_stats[b].delta_bytes;
    container.add("block" + std::to_string(b), std::move(encoded[b]));
  }
  const std::uint64_t meta[3] = {count, rows, cols};
  container.add("meta", u64s_to_bytes(meta));

  fill_stats(container, field.size(), stats);
  if (stats != nullptr) {
    stats->reduced_bytes = reduced_bytes;
    stats->delta_bytes = delta_bytes;
  }
  return container;
}

sim::Field BlockedPreconditioner::decode(const io::Container& container,
                                         const CodecPair& codecs,
                                         const sim::Field*) const {
  const obs::ScopedSpan span("blocked");
  const auto& meta_section = require_section(container, "meta", "blocked");
  const auto meta = bytes_to_u64s(meta_section.bytes);
  if (meta.size() != 3) {
    throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                             "blocked decode: meta size mismatch", "meta");
  }
  const std::size_t count = meta[0];
  const std::size_t rows = meta[1];
  const std::size_t cols = meta[2];
  // The stream's grid must be the container's before it sizes anything.
  if (count == 0 || count > rows ||
      la::checked_cells(rows, cols) !=
          la::checked_cells(la::checked_cells(container.nx, container.ny),
                            container.nz)) {
    throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                             "blocked decode: block grid does not match the "
                             "field shape",
                             "meta");
  }
  const auto blocks = even_split(rows, count);

  // Block row ranges are disjoint, so each task scatters into its own
  // region of `values`; decode errors propagate out of parallel_for.
  std::vector<double> values(rows * cols);
  parallel::parallel_for(count, [&](std::size_t b) {
    const std::string block_name = "block" + std::to_string(b);
    const auto& section = require_section(container, block_name, "blocked");
    // Each block was encoded as a (rows x cols x 1) field; its nested
    // header is stream-controlled too, so check it before the inner
    // decoder sizes anything from it.
    const io::Container nested = io::deserialize(section.bytes);
    const std::size_t block_rows = blocks[b].end - blocks[b].begin;
    if (nested.nx != block_rows || nested.ny != cols || nested.nz != 1) {
      throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                               "blocked decode: block shape mismatch",
                               block_name);
    }
    const sim::Field block = inner_->decode(nested, codecs, nullptr);
    if (block.size() != block_rows * cols) {
      throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                               "blocked decode: block size mismatch",
                               block_name);
    }
    std::copy(block.flat().begin(), block.flat().end(),
              values.begin() + blocks[b].begin * cols);
  });
  return sim::Field::from_data(container.nx, container.ny, container.nz,
                               std::move(values));
}

}  // namespace rmp::core
