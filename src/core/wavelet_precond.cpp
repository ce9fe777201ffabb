#include "core/wavelet_precond.hpp"

#include <stdexcept>

#include "compress/lossless.hpp"
#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "la/sparse.hpp"
#include "wavelet/haar.hpp"

namespace rmp::core {

WaveletPreconditioner::WaveletPreconditioner(WaveletOptions options)
    : ReducedModelPreconditioner(1, /*meta_advisory=*/true),
      options_(options) {
  if (options_.threshold_fraction < 0.0 || options_.threshold_fraction >= 1.0) {
    throw std::invalid_argument("wavelet: threshold_fraction must be in [0, 1)");
  }
}

ModelFit WaveletPreconditioner::fit(const sim::Field& field,
                                   const CodecPair&,
                                   std::span<double> delta) const {
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

  // Reconstruction from the thresholded coefficients, in place.
  if (use_3d) {
    wavelet::haar_inverse_3d(coeffs.flat(), field.nx(), field.ny(),
                             field.nz());
  } else {
    wavelet::haar_inverse_2d(coeffs);
  }
  write_delta(field.flat(), coeffs.flat(), delta);

  return {{{"sparse", compress::lossless_compress(csr_to_bytes(sparse))}},
          {use_3d ? 1u : 0u}};
}

void WaveletPreconditioner::rebuild(const ModelSections& sections,
                                    std::span<const std::uint64_t> meta,
                                    const compress::Dims& dims,
                                    const CodecPair&,
                                    std::span<double> out) const {
  const la::CsrMatrix sparse = bytes_to_csr(
      compress::lossless_decompress(sections["sparse"]), out.size());
  la::Matrix recon = sparse.to_dense();
  if (!meta.empty() && meta[0] != 0) {
    wavelet::haar_inverse_3d(recon.flat(), dims.nx, dims.ny, dims.nz);
  } else {
    wavelet::haar_inverse_2d(recon);
  }
  add_reconstruction(out, recon.flat());
}

}  // namespace rmp::core
