#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <random>
#include <stdexcept>

#include "compress/factory.hpp"
#include "io/checksum.hpp"
#include "sim/synthetic.hpp"

namespace perfbench {

CodecSet make_codecs(bool sz) {
  namespace compress = rmp::compress;
  if (sz) return {compress::make_sz_original(), compress::make_sz_delta()};
  return {compress::make_zfp_original(), compress::make_zfp_delta()};
}

TimedCodecs::TimedCodecs(const CodecSet& codecs, bool sz)
    : reduced_(*codecs.reduced, sz ? "sz.compress" : "zfp.compress",
               sz ? "sz.decompress" : "zfp.decompress"),
      delta_(*codecs.delta, sz ? "sz.compress" : "zfp.compress",
             sz ? "sz.decompress" : "zfp.decompress") {}

rmp::io::SerializeOptions archive_options() {
  rmp::io::SerializeOptions options;
  options.with_parity = true;
  return options;
}

rmp::sim::HeatConfig seeded_heat_config(std::uint64_t seed, std::size_t n,
                                        std::size_t steps) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  rmp::sim::HeatConfig config;
  config.n = n;
  config.steps = steps;
  config.hot_center_z = 0.619 + 0.002 * unit(rng);
  config.hot_radius = 0.2495 + 0.001 * unit(rng);
  return config;
}

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint32_t crc_of(std::span<const double> values) {
  return rmp::io::crc32({reinterpret_cast<const std::uint8_t*>(values.data()),
                         values.size() * sizeof(double)});
}

void QualityMeter::add(std::span<const double> original,
                       std::span<const double> decoded) {
  if (original.size() != decoded.size())
    throw std::runtime_error("decoded size differs from the original");
  for (std::size_t i = 0; i < original.size(); ++i) {
    const double o = original[i];
    const double e = decoded[i] - o;
    if (count_ == 0 && i == 0) lo_ = hi_ = o;
    lo_ = std::min(lo_, o);
    hi_ = std::max(hi_, o);
    sum_sq_ += e * e;
    sum_ += e;
    max_abs_ = std::max(max_abs_, std::abs(e));
  }
  count_ += original.size();
}

double QualityMeter::range() const { return hi_ > lo_ ? hi_ - lo_ : 1.0; }

double QualityMeter::nrmse() const {
  return std::sqrt(sum_sq_ / static_cast<double>(count_)) / range();
}

double QualityMeter::max_rel_error() const { return max_abs_ / range(); }

double QualityMeter::bias() const {
  return std::abs(sum_ / static_cast<double>(count_)) / range();
}

std::string self_test(const std::filesystem::path& dir) {
  namespace io = rmp::io;
  std::filesystem::create_directories(dir);
  rmp::sim::AstroConfig astro;
  astro.n = 24;
  const rmp::sim::Field field = rmp::sim::astro_velocity_field(astro);

  for (const bool sz : {true, false}) {
    const CodecSet codecs = make_codecs(sz);
    const auto preconditioner =
        rmp::core::make_preconditioner(sz ? "pca" : "one-base");
    const auto plain = dir / "plain.rmp";
    const auto timed = dir / "timed.rmp";
    io::write_container(plain, preconditioner->encode(field, codecs.pair()),
                        archive_options());

    const TimedCodecs timed_codecs(codecs, sz);
    Tracer& tracer = Tracer::global();
    tracer.set_enabled(true);
    {
      const ScopedTimedFileOps timed_ops;
      io::write_container(timed,
                          preconditioner->encode(field, timed_codecs.pair()),
                          archive_options());
    }
    tracer.set_enabled(false);
    const std::vector<Span> spans = tracer.spans();
    tracer.clear();

    const auto recorded = [&](std::string_view name) {
      return std::any_of(spans.begin(), spans.end(),
                         [&](const Span& s) { return name == s.name; });
    };
    const char* codec = sz ? "sz" : "zfp";
    if (!recorded(sz ? "sz.compress" : "zfp.compress") ||
        !recorded("fs.fsync") || !recorded("fs.write"))
      return std::string("the timing decorators recorded no spans (") +
             codec + ")";
    if (read_file(plain) != read_file(timed))
      return std::string("an archive written through the timing decorators "
                         "differs from the plain one (") +
             codec + ")";
  }

  Result sample;
  sample.attempted = 3;
  sample.metrics = {{"tiny", 1e-300, "x"},
                    {"third", 1.0 / 3.0, "ms"},
                    {"large", 123456789.123456789, "MB/s"}};
  const std::string why = check_round_trip(format_result(sample), sample);
  if (!why.empty()) return "the result printer does not read back: " + why;
  return {};
}

}  // namespace perfbench
