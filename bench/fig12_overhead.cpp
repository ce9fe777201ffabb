// Fig. 12: average compression and decompression wall time of direct ZFP
// vs PCA/SVD/Wavelet preconditioning, measured with google-benchmark on a
// representative mid-sized dataset (the paper averages across all nine;
// one dataset keeps single-core runtime sane and the ordering identical).
//
// Paper shape to match: compression overhead ordering
// SVD > PCA > wavelet > direct, with decompression much cheaper than
// compression for the matrix methods.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "sim/datasets.hpp"

namespace {

using namespace rmp;

const sim::Field& bench_field() {
  static const sim::Field field =
      sim::make_dataset(sim::DatasetId::kHeat3d, 0.5).full;
  return field;
}

void BM_Encode(benchmark::State& state, const std::string& method) {
  const core::Codecs zfp = core::make_codecs("zfp");
  const auto preconditioner = core::make_preconditioner(method);
  const auto& field = bench_field();
  for (auto _ : state) {
    core::EncodeStats stats;
    auto container = preconditioner->encode(field, zfp.pair(), &stats);
    benchmark::DoNotOptimize(container);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(field.size() * 8));
}

void BM_Decode(benchmark::State& state, const std::string& method) {
  const core::Codecs zfp = core::make_codecs("zfp");
  const auto preconditioner = core::make_preconditioner(method);
  const auto& field = bench_field();
  const auto container = preconditioner->encode(field, zfp.pair(), nullptr);
  for (auto _ : state) {
    auto decoded = preconditioner->decode(container, zfp.pair(), nullptr);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(field.size() * 8));
}

}  // namespace

BENCHMARK_CAPTURE(BM_Encode, direct_zfp, "identity");
BENCHMARK_CAPTURE(BM_Encode, pca, "pca");
BENCHMARK_CAPTURE(BM_Encode, svd, "svd");
BENCHMARK_CAPTURE(BM_Encode, wavelet, "wavelet");
BENCHMARK_CAPTURE(BM_Encode, pca_partitioned, "pca-part");
BENCHMARK_CAPTURE(BM_Decode, direct_zfp, "identity");
BENCHMARK_CAPTURE(BM_Decode, pca, "pca");
BENCHMARK_CAPTURE(BM_Decode, svd, "svd");
BENCHMARK_CAPTURE(BM_Decode, wavelet, "wavelet");
BENCHMARK_CAPTURE(BM_Decode, pca_partitioned, "pca-part");

BENCHMARK_MAIN();
