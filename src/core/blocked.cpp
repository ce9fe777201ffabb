#include "core/blocked.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "io/container_error.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace rmp::core {

BlockedPreconditioner::BlockedPreconditioner(const std::string& inner,
                                             std::size_t partitions)
    : inner_name_(inner),
      partitions_(partitions),
      inner_(make_preconditioner(inner)),
      model_(dynamic_cast<const ReducedModelPreconditioner*>(inner_.get())) {
  if (partitions_ == 0) {
    throw std::invalid_argument("blocked: partitions must be positive");
  }
  if (inner.rfind("blocked-", 0) == 0 ||
      inner.find('>') != std::string::npos) {
    throw std::invalid_argument("blocked: inner stage cannot nest");
  }
}

std::string BlockedPreconditioner::name() const {
  // Blocked PCA keeps the name its archives have always carried.
  return inner_name_ == "pca" ? "pca-part" : "blocked-" + inner_name_;
}

io::Container BlockedPreconditioner::encode(const sim::Field& field,
                                            const CodecPair& codecs,
                                            EncodeStats* stats) const {
  if (model_ == nullptr) {
    throw std::invalid_argument("blocked: " + inner_name_ +
                                " has no reduced model to fit per block");
  }
  const std::string method = name();
  const obs::ScopedSpan span("precondition/" + method);
  const auto [rows, cols] = matrix_shape(field);
  const auto blocks = even_split(rows, std::min(partitions_, rows));
  const auto values = field.flat();
  std::vector<double> delta(field.size());

  // Blocks fit independently on the shared pool, each writing its own
  // rows of `delta`; their sections and meta are appended in block order
  // afterwards, so the archive is the same at every thread count.
  std::vector<ModelFit> fits(blocks.size());
  parallel::parallel_for(blocks.size(), [&](std::size_t b) {
    const std::size_t begin = blocks[b].begin * cols;
    const std::size_t cells = (blocks[b].end - blocks[b].begin) * cols;
    const sim::Field block = sim::Field::from_data(
        blocks[b].end - blocks[b].begin, cols, 1,
        std::vector<double>(values.begin() + begin,
                            values.begin() + begin + cells));
    fits[b] = model_->fit(block, codecs,
                          std::span<double>(delta).subspan(begin, cells));
  });

  std::vector<io::Section> sections;
  std::vector<std::uint64_t> meta = {blocks.size()};
  for (std::size_t b = 0; b < fits.size(); ++b) {
    for (io::Section& section : fits[b].sections) {
      sections.push_back(
          {section.name + std::to_string(b), std::move(section.bytes)});
    }
    meta.insert(meta.end(), fits[b].meta.begin(), fits[b].meta.end());
  }
  return reduced_model_container(method, field, std::move(sections), delta,
                                 meta, codecs, stats);
}

sim::Field BlockedPreconditioner::decode(const io::Container& container,
                                         const CodecPair& codecs,
                                         const sim::Field*) const {
  if (model_ == nullptr || container.find("block0") != nullptr) {
    return decode_nested(container, codecs);
  }
  const std::string method = name();
  const obs::ScopedSpan span(method);
  const auto meta =
      bytes_to_u64s(require_section(container, "meta", method.c_str()).bytes);
  sim::Field out = decode_delta(container, codecs, method.c_str());
  // The block count and every block's words are stream-controlled: they
  // must match the field's row blocks before any block is rebuilt.
  const auto [rows, cols] =
      matrix_shape(container.nx, container.ny, container.nz);
  const std::size_t words = model_->meta_words();
  if (meta.empty() || meta[0] == 0 || meta[0] > rows ||
      meta.size() - 1 != meta[0] * words) {
    throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                             method + " decode: block table does not match "
                                      "the field's row blocks",
                             "meta");
  }
  const auto blocks = even_split(rows, meta[0]);

  // Block row ranges are disjoint, so each task rebuilds its own region
  // of `out`; decode errors propagate out of parallel_for.
  parallel::parallel_for(blocks.size(), [&](std::size_t b) {
    const std::size_t block_rows = blocks[b].end - blocks[b].begin;
    model_->rebuild(
        ModelSections(container, std::to_string(b), method.c_str()),
        std::span(meta).subspan(1 + b * words, words),
        {block_rows, cols, 1}, codecs,
        out.flat().subspan(blocks[b].begin * cols, block_rows * cols));
  });
  return out;
}

sim::Field BlockedPreconditioner::decode_nested(
    const io::Container& container, const CodecPair& codecs) const {
  const obs::ScopedSpan span("blocked");
  const auto meta = read_meta(container, 3, "blocked");
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
