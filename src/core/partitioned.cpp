#include "core/partitioned.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/pca.hpp"
#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "io/container_error.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace rmp::core {

PartitionedPcaPreconditioner::PartitionedPcaPreconditioner(
    PartitionedPcaOptions options)
    : options_(options) {
  if (options_.partitions == 0) {
    throw std::invalid_argument("pca-part: partitions must be positive");
  }
  if (options_.variance_target <= 0.0 || options_.variance_target > 1.0) {
    throw std::invalid_argument("pca-part: variance_target must be in (0, 1]");
  }
}

io::Container PartitionedPcaPreconditioner::encode(const sim::Field& field,
                                                   const CodecPair& codecs,
                                                   EncodeStats* stats) const {
  const obs::ScopedSpan span("precondition/pca-part");
  const la::Matrix a = as_matrix(field);
  const std::size_t cols = a.cols();
  const std::size_t count = std::min(options_.partitions, a.rows());
  const auto blocks = even_split(a.rows(), count);

  std::vector<double> delta(field.size());
  std::vector<std::uint64_t> meta(1 + 2 * count);
  meta[0] = count;

  // Each block runs its whole PCA fit independently and writes a disjoint
  // row range of `delta`; the serialized sections are collected
  // per block and appended in block order afterwards so the container is
  // identical at every thread count.  A block whose Jacobi solve does not
  // converge still encodes: the delta absorbs whatever its basis misses.
  std::vector<io::Section> sections(3 * count);
  parallel::parallel_for(count, [&](std::size_t b) {
    const auto [begin, end] = blocks[b];
    const PcaFit fit = pca_fit(
        la::Matrix(end - begin, cols,
                   std::vector<double>(a.flat().begin() + begin * cols,
                                       a.flat().begin() + end * cols)),
        options_.variance_target);
    const std::size_t cells = (end - begin) * cols;
    combine_pca_reconstruction(
        a.flat().subspan(begin * cols, cells),
        std::span<double>(delta).subspan(begin * cols, cells), fit.scores,
        fit.basis, fit.means, Combine::kSubtract);

    const std::string suffix = std::to_string(b);
    sections[3 * b] = {"scores" + suffix,
                       codecs.reduced->compress(
                           fit.scores.flat(),
                           compress::Dims::d2(fit.scores.rows(),
                                              fit.scores.cols()))};
    sections[3 * b + 1] = {"basis" + suffix, matrix_to_bytes(fit.basis)};
    sections[3 * b + 2] = {"means" + suffix, doubles_to_bytes(fit.means)};
    meta[1 + 2 * b] = fit.basis.cols();
    meta[2 + 2 * b] = fit.scores.rows();
  });

  return reduced_model_container(name(), field, std::move(sections), delta,
                                 meta, codecs, stats);
}

sim::Field PartitionedPcaPreconditioner::decode(
    const io::Container& container, const CodecPair& codecs,
    const sim::Field*) const {
  const obs::ScopedSpan span("pca-part");
  const auto& meta_section = require_section(container, "meta", "pca-part");
  const auto meta = bytes_to_u64s(meta_section.bytes);
  const auto malformed = [](const std::string& what,
                            const std::string& section) {
    return io::ContainerError(io::ContainerErrc::kSectionMalformed,
                              "pca-part decode: " + what, section);
  };
  // meta = {count, k0, rows0, k1, rows1, ...}: every size is stream-
  // controlled, so the block rows must tile the container's cells before
  // anything is divided or allocated.
  if (meta.size() % 2 == 0 || meta[0] != meta.size() / 2) {
    throw malformed("block table size mismatch", "meta");
  }
  const std::size_t count = meta[0];
  const std::size_t cells = la::checked_cells(
      la::checked_cells(container.nx, container.ny), container.nz);
  std::size_t total_rows = 0;
  for (std::size_t b = 0; b < count; ++b) {
    if (meta[2 + 2 * b] > cells - total_rows) {
      throw malformed("block rows exceed the field", "meta");
    }
    total_rows += meta[2 + 2 * b];
  }
  if (total_rows == 0 || cells % total_rows != 0) {
    throw malformed("block rows do not tile the field", "meta");
  }
  const std::size_t cols = cells / total_rows;
  sim::Field out = decode_delta(container, codecs, "pca-part");

  // First row of each block: prefix sums of the per-block row counts, so
  // the per-block decodes can scatter into disjoint ranges concurrently.
  std::vector<std::size_t> row_offset(count, 0);
  for (std::size_t b = 1; b < count; ++b) {
    row_offset[b] = row_offset[b - 1] + meta[2 + 2 * (b - 1)];
  }

  parallel::parallel_for(count, [&](std::size_t b) {
    const std::size_t k = meta[1 + 2 * b];
    const std::size_t rows = meta[2 + 2 * b];
    const std::string suffix = std::to_string(b);
    const auto& scores_section =
        require_section(container, "scores" + suffix, "pca-part");
    const auto& basis_section =
        require_section(container, "basis" + suffix, "pca-part");
    const auto& means_section =
        require_section(container, "means" + suffix, "pca-part");
    const la::Matrix scores(rows, k,
                            codecs.reduced->decompress(scores_section.bytes));
    const la::Matrix basis = bytes_to_matrix(basis_section.bytes);
    if (basis.rows() != cols) {
      throw malformed("basis width mismatch", "basis" + suffix);
    }
    const auto block = out.flat().subspan(row_offset[b] * cols, rows * cols);
    combine_pca_reconstruction(block, block, scores, basis,
                               bytes_to_doubles(means_section.bytes),
                               Combine::kAdd);
  });
  return out;
}

}  // namespace rmp::core
