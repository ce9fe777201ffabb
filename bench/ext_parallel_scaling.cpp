// Extension: scaling behavior of the parallel substrates on this host --
// the 3D-decomposed Heat3d solver (Algorithm 1's substrate) across rank
// grids, and the shared-thread-pool numeric pipelines across worker
// counts.  Each pipeline (parallel-slabs N-to-N compression, blocked /
// partitioned PCA, SVD, wavelet) is timed encode+decode with a
// ScopedPoolOverride installing a pool of 1/2/4/8 workers; threads == 1
// runs the inline serial path, so it doubles as the serial baseline.
//
// On a single-core container the times mostly show runtime overhead; on
// a real multicore they show the speedup.
#include "bench_common.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>

#include "core/parallel_compress.hpp"
#include "core/preconditioner.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/heat.hpp"

namespace {

double timed(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Best of `reps` runs: robust against scheduler noise without needing a
// full statistics pass.
double timed_best(const std::function<void()>& body, int reps = 3) {
  double best = timed(body);
  for (int r = 1; r < reps; ++r) best = std::min(best, timed(body));
  return best;
}

const std::array<std::size_t, 4> kThreadSweep = {1, 2, 4, 8};

double speedup(double serial_s, double threaded_s) {
  return threaded_s > 0.0 ? serial_s / threaded_s : 0.0;
}

// Sweep one pipeline: encode_fn/decode_fn run under a pool of `threads`
// workers installed as the process-wide override, so every internal hot
// path (matrix products, covariance, Haar lines, per-block stages) uses
// exactly that many workers.
void sweep_pipeline(const std::string& name,
                    const std::function<void(std::size_t)>& encode_fn,
                    const std::function<void(std::size_t)>& decode_fn) {
  double serial_encode_s = 0.0, serial_decode_s = 0.0;
  double encode_4t_s = 0.0, decode_4t_s = 0.0;
  for (const std::size_t threads : kThreadSweep) {
    rmp::parallel::ThreadPool pool(threads);
    rmp::parallel::ScopedPoolOverride guard(pool);
    const double encode_s = timed_best([&] { encode_fn(threads); });
    const double decode_s = timed_best([&] { decode_fn(threads); });
    if (threads == 1) {
      serial_encode_s = encode_s;
      serial_decode_s = decode_s;
    }
    if (threads == 4) {
      encode_4t_s = encode_s;
      decode_4t_s = decode_s;
    }
    std::printf("%-14s %-8zu %10.4f %10.4f\n", name.c_str(), threads,
                encode_s, decode_s);
  }
  std::printf("%-14s speedup@4t   enc %.2fx   dec %.2fx\n", name.c_str(),
              speedup(serial_encode_s, encode_4t_s),
              speedup(serial_decode_s, decode_4t_s));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rmp;
  const double scale = bench::parse_scale(argc, argv);
  bench::print_header("Extension", "parallel substrate scaling");

  sim::HeatConfig config;
  config.n = std::max<std::size_t>(16, static_cast<std::size_t>(32 * scale));
  config.steps = 100;

  std::printf("# Heat3d %zu^3, %zu steps, 3D rank grids\n", config.n,
              config.steps);
  std::printf("%-10s %10s\n", "grid", "seconds");
  const std::array<std::array<int, 3>, 4> grids = {
      {{1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {2, 2, 2}}};
  for (const auto& procs : grids) {
    sim::Field result;
    const double seconds = timed(
        [&] { result = sim::heat3d_run_parallel_3d(config, procs); });
    std::printf("%dx%dx%d      %10.4f\n", procs[0], procs[1], procs[2],
                seconds);
  }

  // A larger field for the thread sweep so the hot paths clear their
  // serial cutoffs (the solver field above is sized for the rank-grid
  // part, which pays per-step latency).
  sim::HeatConfig sweep_config;
  sweep_config.n =
      std::max<std::size_t>(48, static_cast<std::size_t>(64 * scale));
  sweep_config.steps = 20;
  const sim::Field field = sim::heat3d_run(sweep_config);

  std::printf("\n# Encode/decode pipelines on Heat3d %zu^3, worker sweep "
              "(best of 3), %u hardware threads\n",
              sweep_config.n, std::thread::hardware_concurrency());
  std::printf("%-14s %-8s %10s %10s\n", "pipeline", "threads", "encode_s",
              "decode_s");

  const core::Codecs zfp = core::make_codecs("zfp");

  {  // N-to-N parallel-slabs compression (Table IV pattern).
    io::Container container;
    sweep_pipeline(
        "parallel-slabs",
        [&](std::size_t threads) {
          container = core::compress_field_parallel(field, *zfp.reduced,
                                                    {8, threads});
        },
        [&](std::size_t threads) {
          core::decompress_field_parallel(container, *zfp.reduced, threads);
        });
  }

  const auto precond_sweep = [&](const std::string& spec) {
    const auto preconditioner = core::make_preconditioner(spec);
    io::Container container;
    sweep_pipeline(
        spec,
        [&](std::size_t) {
          container = preconditioner->encode(field, zfp.pair(), nullptr);
        },
        [&](std::size_t) {
          preconditioner->decode(container, zfp.pair(), nullptr);
        });
  };
  precond_sweep("blocked-pca");
  precond_sweep("pca");
  precond_sweep("svd");
  precond_sweep("wavelet");
  return 0;
}
