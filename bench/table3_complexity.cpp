// Table III: complexity and storage comparison of PCA, SVD and Wavelet.
// The analytic rows are printed as stated in the paper; the empirical
// part measures encode time while doubling the matrix size to verify the
// scaling ordering (SVD >= PCA > Wavelet) -- and doubles as the ablation
// for the partitioned-PCA design choice (DESIGN.md §5).
#include "bench_common.hpp"

#include <chrono>
#include <cmath>

#include "sim/field.hpp"

namespace {

using namespace rmp;

sim::Field synthetic_field(std::size_t n) {
  sim::Field f(n, n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        f.at(i, j, k) =
            std::sin(0.2 * static_cast<double>(i)) *
                std::cos(0.15 * static_cast<double>(j)) +
            0.05 * static_cast<double>(k);
      }
    }
  }
  return f;
}

double time_encode(const core::Preconditioner& preconditioner,
                   const sim::Field& field, const core::CodecPair& codecs) {
  const auto start = std::chrono::steady_clock::now();
  preconditioner.encode(field, codecs, nullptr);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::parse_scale(argc, argv);
  bench::print_header("Table III", "complexity and storage comparison");

  std::printf("%-8s %-22s %-22s %s\n", "method", "approach", "complexity",
              "storage");
  std::printf("%-8s %-22s %-22s %s\n", "PCA", "column correlation",
              "O(mn^2 + n^3)", "scores + eigenvectors (+ delta)");
  std::printf("%-8s %-22s %-22s %s\n", "SVD", "column/row correlation",
              "O(m^2n + mn^2 + n^3)", "three refactored matrices (+ delta)");
  std::printf("%-8s %-22s %-22s %s\n", "Wavelet", "Haar wavelet",
              "O(4mn^2 log n)", "sparse matrix (+ delta)");

  std::printf("\n# empirical scaling check (encode seconds)\n");
  std::printf("%-8s", "n^3");
  for (const char* method : {"pca", "svd", "wavelet", "pca-part"}) {
    std::printf(" %10s", method);
  }
  std::printf("\n");

  const core::Codecs zfp = core::make_codecs("zfp");
  const std::size_t base = std::max<std::size_t>(
      12, static_cast<std::size_t>(24 * scale));
  for (std::size_t n : {base, base * 2}) {
    const sim::Field field = synthetic_field(n);
    std::printf("%-8zu", n);
    for (const char* method : {"pca", "svd", "wavelet", "pca-part"}) {
      const auto preconditioner = core::make_preconditioner(method);
      std::printf(" %10.4f", time_encode(*preconditioner, field, zfp.pair()));
    }
    std::printf("\n");
  }
  return 0;
}
