#include "core/projection.hpp"

#include <stdexcept>

#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace rmp::core {
namespace {

compress::Dims dims3(std::size_t nx, std::size_t ny, std::size_t nz) {
  return {nx, ny, nz};
}

void require_3d(const sim::Field& field, const char* who) {
  if (field.rank() != 3) {
    throw std::invalid_argument(std::string(who) +
                                ": projection methods need a 3D field");
  }
}

// Per-plane loops fan out over X ranges once the field is big enough for
// the pool dispatch to pay for itself; below the cutoff they run inline.
constexpr std::size_t kParallelElementCutoff = 1u << 14;

void for_x_ranges(std::size_t nx, std::size_t total_elements,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (total_elements < kParallelElementCutoff) {
    body(0, nx);
  } else {
    parallel::parallel_for_ranges(nx, body);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// OneBase

ModelFit OneBasePreconditioner::fit(const sim::Field& field,
                                    const CodecPair& codecs,
                                    std::span<double> delta) const {
  require_3d(field, "one-base");
  const std::size_t ny = field.ny();
  const std::size_t nz = field.nz();
  const std::size_t mid = nz / 2;
  const sim::Field plane = extract_z_plane(field, mid);

  // Algorithm 1: every plane's delta against the (broadcast) mid-plane.
  // X-ranges write disjoint regions of `delta`, so they fan out onto the
  // shared pool.
  for_x_ranges(
      field.nx(), field.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t j = 0; j < ny; ++j) {
            const double base = plane.at(i, j);
            for (std::size_t k = 0; k < nz; ++k) {
              delta[(i * ny + j) * nz + k] = field.at(i, j, k) - base;
            }
          }
        }
      });

  return {{{"reduced", traced_compress(*codecs.reduced, "reduced-compress",
                                       plane.flat(),
                                       dims3(field.nx(), ny, 1))}},
          {mid}};
}

void OneBasePreconditioner::rebuild(const ModelSections& sections,
                                    std::span<const std::uint64_t>,
                                    const compress::Dims& dims,
                                    const CodecPair& codecs,
                                    std::span<double> out) const {
  const auto plane_values =
      sections.values("reduced", *codecs.reduced, {dims.nx, dims.ny});

  // Add the broadcast mid-plane into the decoded delta in place.
  for_x_ranges(dims.nx, out.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t j = 0; j < dims.ny; ++j) {
        const double base = plane_values[i * dims.ny + j];
        double* row = out.data() + (i * dims.ny + j) * dims.nz;
        for (std::size_t k = 0; k < dims.nz; ++k) row[k] += base;
      }
    }
  });
}

// ---------------------------------------------------------------------------
// MultiBase

MultiBasePreconditioner::MultiBasePreconditioner(std::size_t slabs)
    : ReducedModelPreconditioner(1), slabs_(slabs) {
  if (slabs_ == 0) {
    throw std::invalid_argument("multi-base: slab count must be positive");
  }
}

ModelFit MultiBasePreconditioner::fit(const sim::Field& field,
                                      const CodecPair& codecs,
                                      std::span<double> delta) const {
  require_3d(field, "multi-base");
  const std::size_t ny = field.ny();
  const std::size_t nz = field.nz();
  const std::size_t count = std::min(slabs_, nz);
  const auto slabs = even_split(nz, count);

  // Reduced model: the stack of per-slab mid-planes, an (nx, ny, count)
  // field -- no broadcast needed, each sub-domain is self-contained.
  sim::Field planes(field.nx(), ny, count);
  for (std::size_t s = 0; s < count; ++s) {
    for (std::size_t i = 0; i < field.nx(); ++i) {
      for (std::size_t j = 0; j < ny; ++j) {
        planes.at(i, j, s) =
            field.at(i, j, (slabs[s].begin + slabs[s].end) / 2);
      }
    }
  }

  // X is the outer parallel axis (disjoint writes per i); each task walks
  // all slabs for its rows, which keeps the (i, j) plane lookups local.
  for_x_ranges(
      field.nx(), field.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t s = 0; s < count; ++s) {
            for (std::size_t j = 0; j < ny; ++j) {
              const double base = planes.at(i, j, s);
              for (std::size_t k = slabs[s].begin; k < slabs[s].end; ++k) {
                delta[(i * ny + j) * nz + k] = field.at(i, j, k) - base;
              }
            }
          }
        }
      });

  return {{{"reduced", traced_compress(*codecs.reduced, "reduced-compress",
                                       planes.flat(),
                                       dims3(field.nx(), ny, count))}},
          {count}};
}

void MultiBasePreconditioner::rebuild(const ModelSections& sections,
                                      std::span<const std::uint64_t> meta,
                                      const compress::Dims& dims,
                                      const CodecPair& codecs,
                                      std::span<double> out) const {
  const std::size_t count = meta[0];
  // The slab count is stream-controlled: check it before it sizes
  // anything.
  if (count == 0 || count > dims.nz) {
    throw io::ContainerError(io::ContainerErrc::kSectionMalformed,
                             "multi-base decode: slab count outside [1, nz]",
                             "meta");
  }
  const auto slabs = even_split(dims.nz, count);
  const auto plane_values =
      sections.values("reduced", *codecs.reduced, {dims.nx, dims.ny, count});

  // Add each slab's mid-plane into the decoded delta in place.
  for_x_ranges(dims.nx, out.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t s = 0; s < count; ++s) {
        for (std::size_t j = 0; j < dims.ny; ++j) {
          const double base = plane_values[(i * dims.ny + j) * count + s];
          double* row = out.data() + (i * dims.ny + j) * dims.nz;
          for (std::size_t k = slabs[s].begin; k < slabs[s].end; ++k) {
            row[k] += base;
          }
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// DuoModel

DuoModelPreconditioner::DuoModelPreconditioner(std::size_t factor,
                                               bool store_reduced)
    : factor_(factor), store_reduced_(store_reduced) {
  if (factor_ < 2) {
    throw std::invalid_argument("duomodel: factor must be >= 2");
  }
}

sim::Field DuoModelPreconditioner::make_reduced(const sim::Field& field) const {
  return downsample(field, factor_,
                    field.ny() > 1 ? factor_ : 1,
                    field.nz() > 1 ? factor_ : 1);
}

io::Container DuoModelPreconditioner::encode(const sim::Field& field,
                                             const CodecPair& codecs,
                                             EncodeStats* stats) const {
  return encode_with_reduced(field, make_reduced(field), codecs, stats);
}

io::Container DuoModelPreconditioner::encode_with_reduced(
    const sim::Field& field, const sim::Field& reduced,
    const CodecPair& codecs, EncodeStats* stats) const {
  const obs::ScopedSpan span("precondition/duomodel");
  const sim::Field reconstruction =
      upsample_linear(reduced, field.nx(), field.ny(), field.nz());
  const sim::Field delta = subtract(field, reconstruction);

  io::Container container;
  container.method = name();
  container.nx = field.nx();
  container.ny = field.ny();
  container.nz = field.nz();
  container.add("delta",
                traced_compress(*codecs.delta, "delta-compress", delta.flat(),
                                dims3(field.nx(), field.ny(), field.nz())));
  if (store_reduced_) {
    container.add("reduced",
                  traced_compress(
                      *codecs.reduced, "reduced-compress", reduced.flat(),
                      dims3(reduced.nx(), reduced.ny(), reduced.nz())));
  }
  const std::uint64_t meta[5] = {reduced.nx(), reduced.ny(), reduced.nz(),
                                 factor_, store_reduced_ ? 1u : 0u};
  container.add("meta", u64s_to_bytes(meta));

  fill_stats(container, field.size(), stats);
  if (stats != nullptr) {
    const auto* r = container.find("reduced");
    stats->reduced_bytes = r != nullptr ? r->bytes.size() : 0;
    stats->delta_bytes = container.find("delta")->bytes.size();
  }
  return container;
}

sim::Field DuoModelPreconditioner::decode(
    const io::Container& container, const CodecPair& codecs,
    const sim::Field* external_reduced) const {
  const obs::ScopedSpan span("duomodel");
  const auto meta = read_meta(container, 5, "duomodel");
  const std::size_t rnx = meta[0];
  const std::size_t rny = meta[1];
  const std::size_t rnz = meta[2];
  const bool stored = meta[4] != 0;
  sim::Field out = decode_delta(container, codecs, "duomodel");

  sim::Field reduced;
  if (stored) {
    reduced = sim::Field::from_data(
        rnx, rny, rnz,
        ModelSections(container, "", "duomodel")
            .values("reduced", *codecs.reduced, {rnx, rny, rnz}));
  } else {
    // True DuoModel: the light simulation is re-run; the caller supplies
    // its output.
    if (external_reduced == nullptr) {
      throw std::invalid_argument(
          "duomodel decode: reduced model not stored; supply the re-computed "
          "reduced field");
    }
    if (external_reduced->nx() != rnx || external_reduced->ny() != rny ||
        external_reduced->nz() != rnz) {
      throw std::invalid_argument(
          "duomodel decode: external reduced field has the wrong shape");
    }
    reduced = *external_reduced;
  }

  const sim::Field reconstruction =
      upsample_linear(reduced, container.nx, container.ny, container.nz);
  add_reconstruction(out.flat(), reconstruction.flat());
  return out;
}

}  // namespace rmp::core
