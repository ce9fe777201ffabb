// Guard-layer tests: audit census, bit-exact nanmask round trips,
// provenance serialization, and the demote-and-retry chain on real
// (Sedov) data speckled with NaN/Inf.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/guard.hpp"
#include "core/pca.hpp"
#include "core/pipeline.hpp"
#include "io/container_error.hpp"
#include "sim/sedov.hpp"
#include "stats/metrics.hpp"

namespace rmp::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

sim::Field sedov_field() {
  sim::SedovConfig config;
  config.n = 24;
  return sim::sedov_pressure_field(config);
}

/// A NaN with a distinctive payload, to prove restoration is bit-exact
/// and not just "some NaN".
double payload_nan() {
  std::uint64_t bits = 0x7ff8dead'beef1234ull;
  double value;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

TEST(GuardAudit, CountsEveryCategory) {
  sim::Field f(4, 4, 4, 1.0);
  f.flat()[0] = kNan;
  f.flat()[1] = kInf;
  f.flat()[2] = -kInf;
  f.flat()[3] = std::numeric_limits<double>::denorm_min();
  f.flat()[4] = 3.0;

  const DataAudit audit = audit_field(f);
  EXPECT_EQ(audit.total, 64u);
  EXPECT_EQ(audit.nans, 1u);
  EXPECT_EQ(audit.pos_infs, 1u);
  EXPECT_EQ(audit.neg_infs, 1u);
  EXPECT_EQ(audit.denormals, 1u);
  EXPECT_EQ(audit.finite, 61u);
  EXPECT_EQ(audit.nonfinite(), 3u);
  EXPECT_FALSE(audit.all_nonfinite());
  EXPECT_FALSE(audit.constant_field);
  EXPECT_FALSE(audit.degenerate_shape);
  EXPECT_DOUBLE_EQ(audit.finite_max, 3.0);
  EXPECT_DOUBLE_EQ(audit.finite_min,
                   std::numeric_limits<double>::denorm_min());
}

TEST(GuardAudit, FlagsConstantAndDegenerate) {
  const sim::Field constant(8, 8, 1, 42.0);
  const DataAudit c = audit_field(constant);
  EXPECT_TRUE(c.constant_field);
  EXPECT_FALSE(c.degenerate_shape);

  const sim::Field single(1, 1, 1, 7.0);
  EXPECT_TRUE(audit_field(single).degenerate_shape);

  sim::Field all_nan(2, 2, 1, kNan);
  EXPECT_TRUE(audit_field(all_nan).all_nonfinite());
}

TEST(GuardMask, ExtractFillRestoreIsBitExact) {
  sim::Field f(4, 4, 4);
  for (std::size_t n = 0; n < f.size(); ++n) {
    f.flat()[n] = 0.25 * static_cast<double>(n);
  }
  const double special = payload_nan();
  f.flat()[10] = special;
  f.flat()[20] = kInf;
  f.flat()[30] = -kInf;

  sim::Field filled = f;
  const NanMask mask = extract_nonfinite(filled);
  ASSERT_EQ(mask.size(), 3u);
  for (std::size_t n = 0; n < filled.size(); ++n) {
    EXPECT_TRUE(std::isfinite(filled.flat()[n])) << "cell " << n;
  }

  apply_nanmask(filled, mask);
  for (std::size_t n = 0; n < f.size(); ++n) {
    EXPECT_EQ(bits_of(filled.flat()[n]), bits_of(f.flat()[n])) << "cell " << n;
  }
}

TEST(GuardMask, FillUsesFiniteNeighborMean) {
  sim::Field f(3, 1, 1);
  f.flat()[0] = 2.0;
  f.flat()[1] = kNan;
  f.flat()[2] = 4.0;
  extract_nonfinite(f);
  EXPECT_DOUBLE_EQ(f.flat()[1], 3.0);  // mean of the two axis neighbors
}

TEST(GuardMask, BytesRoundTrip) {
  NanMask mask;
  mask.indices = {3, 17, 4095};
  mask.bits = {bits_of(payload_nan()), bits_of(kInf), bits_of(-kInf)};

  const auto bytes = nanmask_to_bytes(mask);
  const NanMask back = nanmask_from_bytes(bytes);
  EXPECT_EQ(back.indices, mask.indices);
  EXPECT_EQ(back.bits, mask.bits);
}

TEST(GuardMask, MalformedBytesAreTypedErrors) {
  const std::vector<std::uint8_t> garbage = {1, 2, 3, 4, 5};
  EXPECT_THROW(nanmask_from_bytes(garbage), io::ContainerError);
}

TEST(GuardMask, ApplyValidatesIndexRange) {
  sim::Field f(2, 2, 1);
  NanMask mask;
  mask.indices = {99};  // out of range for 4 cells
  mask.bits = {bits_of(kNan)};
  EXPECT_THROW(apply_nanmask(f, mask), io::ContainerError);
}

TEST(GuardProvenanceCodec, RoundTripsAllFields) {
  GuardProvenance prov;
  prov.requested = "pca";
  prov.actual = "raw";
  prov.demotions = {{"pca", "eigen-non-convergence: injected"},
                    {"identity", "bound verification failed"}};
  prov.masked_cells = 12;
  prov.bound_checked = true;
  prov.bound = 1e-6;
  prov.bound_satisfied = true;
  prov.verified_max_error = 0.0;

  const auto bytes = provenance_to_bytes(prov);
  const GuardProvenance back = provenance_from_bytes(bytes);
  EXPECT_EQ(back.requested, "pca");
  EXPECT_EQ(back.actual, "raw");
  ASSERT_EQ(back.demotions.size(), 2u);
  EXPECT_EQ(back.demotions[0].from, "pca");
  EXPECT_EQ(back.demotions[0].reason, "eigen-non-convergence: injected");
  EXPECT_EQ(back.masked_cells, 12u);
  EXPECT_TRUE(back.bound_checked);
  EXPECT_DOUBLE_EQ(back.bound, 1e-6);
  EXPECT_TRUE(back.bound_satisfied);
  EXPECT_DOUBLE_EQ(back.verified_max_error, 0.0);
}

TEST(GuardedEncode, CleanFieldKeepsRequestedModel) {
  const Codecs codecs = make_codecs("sz");
  const sim::Field f = sedov_field();
  GuardOptions options;
  options.method = "pca";
  const auto result = guarded_encode(f, codecs.pair(), options);
  EXPECT_EQ(result.provenance.requested, "pca");
  EXPECT_EQ(result.provenance.actual, "pca");
  EXPECT_TRUE(result.provenance.demotions.empty());
  EXPECT_EQ(result.provenance.masked_cells, 0u);
  EXPECT_EQ(result.container.find(kNanMaskSection), nullptr);
  ASSERT_NE(result.container.find(kGuardSection), nullptr);
}

// The ISSUE acceptance test: a NaN/Inf-speckled Sedov field round-trips
// under --guard with the bound satisfied on finite cells and the
// nonfinite cells restored bit-exactly through the stock reconstruct().
TEST(GuardedEncode, SpeckledSedovSatisfiesBoundAndRestoresBitExact) {
  const Codecs codecs = make_codecs("sz");
  sim::Field f = sedov_field();
  f.flat()[101] = payload_nan();
  f.flat()[999] = kInf;
  f.flat()[5000] = -kInf;

  GuardOptions options;
  options.method = "pca";
  options.error_bound = 1e-2;
  const auto result = guarded_encode(f, codecs.pair(), options);

  EXPECT_TRUE(result.provenance.bound_checked);
  EXPECT_TRUE(result.provenance.bound_satisfied);
  EXPECT_LE(result.provenance.verified_max_error, 1e-2);
  EXPECT_EQ(result.provenance.masked_cells, 3u);

  const sim::Field decoded = reconstruct(result.container, codecs.pair());
  ASSERT_EQ(decoded.size(), f.size());
  for (std::size_t n = 0; n < f.size(); ++n) {
    if (std::isfinite(f.flat()[n])) {
      ASSERT_TRUE(std::isfinite(decoded.flat()[n])) << "cell " << n;
      EXPECT_LE(std::abs(f.flat()[n] - decoded.flat()[n]), 1e-2) << "cell " << n;
    } else {
      EXPECT_EQ(bits_of(decoded.flat()[n]), bits_of(f.flat()[n])) << "cell " << n;
    }
  }
}

TEST(GuardedEncode, EigenNonConvergenceDemotesToIdentity) {
  const Codecs codecs = make_codecs("sz");
  const sim::Field f = sedov_field();
  GuardOptions options;
  options.method = "pca";
  // Inject non-convergence at the library level: a zero sweep budget can
  // never drive the off-diagonal mass below tolerance.
  options.factory = [](const std::string& name)
      -> std::unique_ptr<Preconditioner> {
    if (name == "pca") {
      PcaOptions pca;
      pca.jacobi.max_sweeps = 0;
      return std::make_unique<PcaPreconditioner>(pca);
    }
    return make_preconditioner(name);
  };

  const auto result = guarded_encode(f, codecs.pair(), options);
  EXPECT_EQ(result.provenance.requested, "pca");
  EXPECT_EQ(result.provenance.actual, "identity");
  ASSERT_EQ(result.provenance.demotions.size(), 1u);
  EXPECT_EQ(result.provenance.demotions[0].from, "pca");
  EXPECT_NE(result.provenance.demotions[0].reason.find("eigen"),
            std::string::npos);

  // The demotion is recorded in the container itself.
  const auto prov = read_provenance(result.container);
  ASSERT_TRUE(prov.has_value());
  EXPECT_EQ(prov->actual, "identity");
}

TEST(GuardedEncode, ZeroBoundDemotesToLosslessRaw) {
  const Codecs codecs = make_codecs("sz");
  const sim::Field f = sedov_field();
  GuardOptions options;
  options.method = "pca";
  options.error_bound = 0.0;  // only a lossless terminal can satisfy this
  const auto result = guarded_encode(f, codecs.pair(), options);
  EXPECT_EQ(result.provenance.actual, "raw");
  EXPECT_TRUE(result.provenance.bound_satisfied);
  EXPECT_EQ(result.provenance.verified_max_error, 0.0);
  EXPECT_GE(result.provenance.demotions.size(), 2u);  // pca and identity fell

  const sim::Field decoded = reconstruct(result.container, codecs.pair());
  for (std::size_t n = 0; n < f.size(); ++n) {
    EXPECT_EQ(bits_of(decoded.flat()[n]), bits_of(f.flat()[n])) << "cell " << n;
  }
}

TEST(GuardedEncode, EmptyFieldIsATypedError) {
  const Codecs codecs = make_codecs("sz");
  const sim::Field empty(0, 0, 0);
  try {
    guarded_encode(empty, codecs.pair());
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(e.code(), PrecondErrc::kDegenerateInput);
  }
}

TEST(GuardedEncode, UnknownMethodIsACallerBug) {
  const Codecs codecs = make_codecs("sz");
  const sim::Field f(4, 4, 1, 1.0);
  GuardOptions options;
  options.method = "no-such-model";
  EXPECT_THROW(guarded_encode(f, codecs.pair(), options),
               std::invalid_argument);
}

TEST(GuardedEncode, PreGuardArchivesDecodeUnchanged) {
  // A container produced without the guard has no nanmask/guard sections;
  // reconstruct() must treat it exactly as before.
  const Codecs codecs = make_codecs("sz");
  const sim::Field f = sedov_field();
  const auto p = make_preconditioner("pca");
  const auto container = p->encode(f, codecs.pair(), nullptr);
  EXPECT_EQ(container.find(kNanMaskSection), nullptr);
  EXPECT_EQ(container.find(kGuardSection), nullptr);
  const sim::Field decoded = reconstruct(container, codecs.pair());
  EXPECT_LT(stats::rmse(f.flat(), decoded.flat()), 1.0);
  EXPECT_FALSE(read_provenance(container).has_value());
}

}  // namespace
}  // namespace rmp::core
