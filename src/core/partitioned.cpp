#include "core/partitioned.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/pca.hpp"
#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "io/container_error.hpp"
#include "la/covariance.hpp"
#include "la/eigen.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace rmp::core {
namespace {

struct RowBlock {
  std::size_t begin, end;
};

std::vector<RowBlock> make_blocks(std::size_t rows, std::size_t count) {
  std::vector<RowBlock> blocks;
  blocks.reserve(count);
  for (std::size_t b = 0; b < count; ++b) {
    blocks.push_back({b * rows / count, (b + 1) * rows / count});
  }
  return blocks;
}

la::Matrix rows_of(const la::Matrix& m, const RowBlock& block) {
  la::Matrix out(block.end - block.begin, m.cols());
  for (std::size_t i = block.begin; i < block.end; ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      out(i - block.begin, j) = m(i, j);
    }
  }
  return out;
}

}  // namespace

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
  const std::size_t count = std::min(options_.partitions, a.rows());
  const auto blocks = make_blocks(a.rows(), count);

  la::Matrix reconstruction(a.rows(), a.cols());
  std::vector<std::uint64_t> meta(1 + 2 * count);
  meta[0] = count;

  io::Container container;
  container.method = name();
  container.nx = field.nx();
  container.ny = field.ny();
  container.nz = field.nz();

  // Each block runs its whole PCA (covariance, Jacobi sweep, projection)
  // independently and writes a disjoint row range of `reconstruction`;
  // the serialized sections are collected per block and appended in block
  // order afterwards so the container is identical at every thread count.
  struct BlockSections {
    std::vector<std::uint8_t> scores, basis, means;
  };
  std::vector<BlockSections> sections(count);
  parallel::parallel_for(count, [&](std::size_t b) {
    la::Matrix block = rows_of(a, blocks[b]);
    const auto means = la::column_means(block);
    la::Matrix centered = block;
    la::center_columns(centered, means);

    const auto eig = la::jacobi_eigen(la::covariance(block));
    double total = 0.0;
    for (double v : eig.values) total += std::max(v, 0.0);
    std::vector<double> proportions;
    proportions.reserve(eig.values.size());
    for (double v : eig.values) {
      proportions.push_back(total > 0.0 ? std::max(v, 0.0) / total : 0.0);
    }
    std::size_t k =
        std::max<std::size_t>(1, components_for_target(
                                     proportions, options_.variance_target));

    la::Matrix basis(eig.vectors.rows(), k);
    for (std::size_t i = 0; i < basis.rows(); ++i) {
      for (std::size_t j = 0; j < k; ++j) basis(i, j) = eig.vectors(i, j);
    }
    const la::Matrix scores = centered * basis;

    la::Matrix block_recon = scores * basis.transposed();
    la::uncenter_columns(block_recon, means);
    for (std::size_t i = blocks[b].begin; i < blocks[b].end; ++i) {
      for (std::size_t j = 0; j < a.cols(); ++j) {
        reconstruction(i, j) = block_recon(i - blocks[b].begin, j);
      }
    }

    sections[b].scores = codecs.reduced->compress(
        scores.flat(), compress::Dims::d2(scores.rows(), scores.cols()));
    sections[b].basis = matrix_to_bytes(basis);
    sections[b].means = doubles_to_bytes(means);
    meta[1 + 2 * b] = k;
    meta[2 + 2 * b] = scores.rows();
  });

  std::size_t reduced_bytes = 0;
  for (std::size_t b = 0; b < count; ++b) {
    const std::string suffix = std::to_string(b);
    reduced_bytes += sections[b].scores.size() + sections[b].basis.size() +
                     sections[b].means.size();
    container.add("scores" + suffix, std::move(sections[b].scores));
    container.add("basis" + suffix, std::move(sections[b].basis));
    container.add("means" + suffix, std::move(sections[b].means));
  }

  const sim::Field delta = subtract(
      field,
      matrix_to_field(reconstruction, field.nx(), field.ny(), field.nz()));
  container.add("delta",
                traced_compress(*codecs.delta, "delta-compress", delta.flat(),
                                {field.nx(), field.ny(), field.nz()}));
  container.add("meta", u64s_to_bytes(meta));

  fill_stats(container, field.size(), stats);
  if (stats != nullptr) {
    stats->reduced_bytes = reduced_bytes;
    stats->delta_bytes = container.find("delta")->bytes.size();
  }
  return container;
}

sim::Field PartitionedPcaPreconditioner::decode(
    const io::Container& container, const CodecPair& codecs,
    const sim::Field*) const {
  const obs::ScopedSpan span("pca-part");
  const auto& meta_section = require_section(container, "meta", "pca-part");
  const auto& delta_section = require_section(container, "delta", "pca-part");
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

  // First row of each block: prefix sums of the per-block row counts, so
  // the per-block decodes can scatter into disjoint ranges concurrently.
  std::vector<std::size_t> row_offset(count, 0);
  for (std::size_t b = 1; b < count; ++b) {
    row_offset[b] = row_offset[b - 1] + meta[2 + 2 * (b - 1)];
  }

  la::Matrix reconstruction(total_rows, cols);
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
    la::Matrix scores(rows, k,
                      codecs.reduced->decompress(scores_section.bytes));
    const la::Matrix basis = bytes_to_matrix(basis_section.bytes);
    if (basis.rows() != cols) {
      throw malformed("basis width mismatch", "basis" + suffix);
    }
    const auto means = bytes_to_doubles(means_section.bytes);

    la::Matrix block_recon = scores * basis.transposed();
    la::uncenter_columns(block_recon, means);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        reconstruction(row_offset[b] + i, j) = block_recon(i, j);
      }
    }
  });

  const auto delta_values = codecs.delta->decompress(delta_section.bytes);
  sim::Field out = sim::Field::from_data(container.nx, container.ny,
                                         container.nz, delta_values);
  return add(out, matrix_to_field(reconstruction, container.nx, container.ny,
                                  container.nz));
}

}  // namespace rmp::core
