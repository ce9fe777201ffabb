#include "core/wavelet_precond.hpp"

#include <stdexcept>

#include "compress/lossless.hpp"
#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "la/sparse.hpp"
#include "obs/obs.hpp"
#include "wavelet/haar.hpp"

namespace rmp::core {

WaveletPreconditioner::WaveletPreconditioner(WaveletOptions options)
    : options_(options) {
  if (options_.threshold_fraction < 0.0 || options_.threshold_fraction >= 1.0) {
    throw std::invalid_argument("wavelet: threshold_fraction must be in [0, 1)");
  }
}

io::Container WaveletPreconditioner::encode(const sim::Field& field,
                                            const CodecPair& codecs,
                                            EncodeStats* stats) const {
  const obs::ScopedSpan span("precondition/wavelet");
  const bool use_3d = options_.transform_3d && field.rank() == 3;
  la::Matrix coeffs = as_matrix(field);
  if (use_3d) {
    // Same memory layout: the canonical (nx*ny, nz) matrix view of the
    // 3D coefficient array keeps the CSR machinery unchanged.
    wavelet::haar_forward_3d(coeffs.flat(), field.nx(), field.ny(),
                             field.nz());
  } else {
    wavelet::haar_forward_2d(coeffs);
  }

  const double theta =
      wavelet::threshold_for_fraction(coeffs, options_.threshold_fraction);
  wavelet::threshold_coefficients(coeffs, theta);

  const la::CsrMatrix sparse = la::CsrMatrix::from_dense(coeffs);

  // Reconstruction from the thresholded coefficients, turned into the
  // delta in place.
  la::Matrix delta = std::move(coeffs);
  if (use_3d) {
    wavelet::haar_inverse_3d(delta.flat(), field.nx(), field.ny(),
                             field.nz());
  } else {
    wavelet::haar_inverse_2d(delta);
  }
  delta_in_place(field, delta.flat());

  const std::uint64_t meta[1] = {use_3d ? 1u : 0u};
  return reduced_model_container(
      name(), field,
      {{"sparse", compress::lossless_compress(csr_to_bytes(sparse))}},
      delta.flat(), meta, codecs, stats);
}

sim::Field WaveletPreconditioner::decode(const io::Container& container,
                                         const CodecPair& codecs,
                                         const sim::Field*) const {
  const obs::ScopedSpan span("wavelet");
  const auto& sparse_section = require_section(container, "sparse", "wavelet");
  sim::Field out = decode_delta(container, codecs, "wavelet");
  const la::CsrMatrix sparse = bytes_to_csr(
      compress::lossless_decompress(sparse_section.bytes), out.size());

  bool use_3d = false;
  if (const auto* meta_section = container.find("meta")) {
    const auto meta = bytes_to_u64s(meta_section->bytes);
    use_3d = !meta.empty() && meta[0] != 0;
  }

  la::Matrix recon = sparse.to_dense();
  if (use_3d) {
    wavelet::haar_inverse_3d(recon.flat(), container.nx, container.ny,
                             container.nz);
  } else {
    wavelet::haar_inverse_2d(recon);
  }
  add_reconstruction(out, recon.flat(), "wavelet");
  return out;
}

}  // namespace rmp::core
