// Ablation: predictive model selection (paper future work #2) vs brute
// force.  For every dataset, run the cheap feature-based predictor and
// the exhaustive search, and report the agreement and the ratio regret
// (best ratio / predicted method's ratio).
#include "bench_common.hpp"

#include "core/model_predict.hpp"
#include "core/model_select.hpp"
#include "sim/datasets.hpp"

int main(int argc, char** argv) {
  using namespace rmp;
  const double scale = bench::parse_scale(argc, argv);
  bench::print_header("Ablation", "predicted vs brute-force model choice");

  const core::Codecs sz = core::make_codecs("sz");
  std::printf("%-14s %-10s %-10s %10s %8s\n", "dataset", "predicted",
              "best", "regret", "agree");
  std::size_t agreements = 0;
  double worst_regret = 1.0;
  for (sim::DatasetId id : sim::all_datasets()) {
    const auto pair = sim::make_dataset(id, scale);
    const auto prediction = core::predict_best_model(pair.full);

    core::SelectionOptions options;
    options.candidates = {"identity", "one-base", "pca"};
    const auto selection =
        core::select_best_model(pair.full, sz.pair(), options);

    double predicted_ratio = 0.0;
    for (const auto& result : selection.all) {
      if (result.method == prediction.method) {
        predicted_ratio = result.stats.compression_ratio;
      }
    }
    const double best_ratio = selection.best_result.stats.compression_ratio;
    const double regret =
        predicted_ratio > 0.0 ? best_ratio / predicted_ratio : 0.0;
    const bool agree = prediction.method == selection.best;
    agreements += agree ? 1 : 0;
    worst_regret = std::max(worst_regret, regret);
    std::printf("%-14s %-10s %-10s %9.2fx %8s\n", pair.name.c_str(),
                prediction.method.c_str(), selection.best.c_str(), regret,
                agree ? "yes" : "no");
  }
  std::printf("agreement: %zu/9, worst regret %.2fx\n", agreements,
              worst_regret);
  return 0;
}
