// Degenerate-field property suite: every registered preconditioner x both
// codec families x a gallery of hostile inputs (all-NaN, all-constant,
// single-cell, +-Inf spikes, denormal-heavy, NaN speckle) must round-trip
// through the guard layer with the bound satisfied on finite cells and the
// nonfinite cells restored bit-exactly -- or demote with a typed reason.
// No data-shaped input may escape as an uncaught exception.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/guard.hpp"
#include "core/pipeline.hpp"
#include "core/preconditioner.hpp"

namespace rmp::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

struct DegenerateCase {
  std::string name;
  sim::Field field;
};

std::uint64_t bits_of(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

std::vector<DegenerateCase> degenerate_cases() {
  std::vector<DegenerateCase> cases;

  cases.push_back({"all-nan", sim::Field(4, 4, 4, kNan)});
  cases.push_back({"all-constant", sim::Field(8, 8, 4, 3.14159)});
  cases.push_back({"single-cell", sim::Field(1, 1, 1, 42.0)});

  sim::Field spikes(6, 6, 6);
  for (std::size_t n = 0; n < spikes.size(); ++n) {
    spikes.flat()[n] = std::sin(0.3 * static_cast<double>(n));
  }
  spikes.flat()[0] = kInf;
  spikes.flat()[spikes.size() / 2] = -kInf;
  spikes.flat()[spikes.size() - 1] = kInf;
  cases.push_back({"inf-spikes", std::move(spikes)});

  sim::Field denormal(6, 6, 6);
  for (std::size_t n = 0; n < denormal.size(); ++n) {
    denormal.flat()[n] = std::numeric_limits<double>::denorm_min() *
                     static_cast<double>(1 + n % 7);
  }
  cases.push_back({"denormal-heavy", std::move(denormal)});

  sim::Field speckle(6, 6, 6);
  for (std::size_t n = 0; n < speckle.size(); ++n) {
    speckle.flat()[n] = std::cos(0.2 * static_cast<double>(n));
    if (n % 17 == 3) speckle.flat()[n] = kNan;
  }
  cases.push_back({"nan-speckle", std::move(speckle)});

  return cases;
}

// The core property: guarded_encode never throws for any (field, model,
// codec) combination, the archive reconstructs, finite cells honor the
// bound, nonfinite cells restore bit-exactly, and the provenance names a
// model that actually ran.
TEST(GuardDegenerate, EveryModelEveryCodecEveryField) {
  const double bound = 1e-2;
  for (const std::string family : {"sz", "zfp"}) {
    const Codecs codecs = make_codecs(family);
    for (const auto& method : preconditioner_names()) {
      for (const auto& test_case : degenerate_cases()) {
        SCOPED_TRACE(family + "/" + method + "/" + test_case.name);
        const sim::Field& f = test_case.field;

        GuardOptions options;
        options.method = method;
        options.error_bound = bound;
        GuardedEncodeResult result;
        ASSERT_NO_THROW(result = guarded_encode(f, codecs.pair(), options));

        EXPECT_EQ(result.provenance.requested, method);
        EXPECT_FALSE(result.provenance.actual.empty());
        EXPECT_TRUE(result.provenance.bound_satisfied);
        if (result.provenance.actual != method) {
          EXPECT_FALSE(result.provenance.demotions.empty())
              << "demoted without a recorded reason";
          for (const auto& demotion : result.provenance.demotions) {
            EXPECT_FALSE(demotion.reason.empty());
          }
        }

        sim::Field decoded;
        ASSERT_NO_THROW(
            decoded = guarded_decode(result.container, codecs.pair()));
        ASSERT_EQ(decoded.size(), f.size());
        for (std::size_t n = 0; n < f.size(); ++n) {
          if (std::isfinite(f.flat()[n])) {
            ASSERT_TRUE(std::isfinite(decoded.flat()[n]))
                << "finite cell " << n << " decoded nonfinite";
            EXPECT_LE(std::abs(f.flat()[n] - decoded.flat()[n]), bound)
                << "cell " << n;
          } else {
            EXPECT_EQ(bits_of(decoded.flat()[n]), bits_of(f.flat()[n]))
                << "nonfinite cell " << n << " not bit-exact";
          }
        }
      }
    }
  }
}

// Unguarded encodes may reject degenerate data, but only with typed
// exceptions -- nothing data-shaped may surface as a raw crash or an
// unclassified error type.
TEST(GuardDegenerate, UnguardedFailuresAreTypedExceptions) {
  const Codecs codecs = make_codecs("sz");
  for (const auto& method : preconditioner_names()) {
    for (const auto& test_case : degenerate_cases()) {
      SCOPED_TRACE(method + "/" + test_case.name);
      try {
        const auto p = make_preconditioner(method);
        const auto container = p->encode(test_case.field, codecs.pair(),
                                         nullptr);
        (void)p->decode(container, codecs.pair(), nullptr);
      } catch (const std::exception&) {
        // Typed and catchable is the contract; which subtype is the
        // encoder's business.
      }
    }
  }
}

// RMP_GUARD_INJECT drives the fallback chain end to end for each failure
// class the guard knows how to demote on.
TEST(GuardDegenerate, InjectedFailuresDemoteWithReasons) {
  const Codecs codecs = make_codecs("sz");
  sim::Field f(6, 6, 6);
  for (std::size_t n = 0; n < f.size(); ++n) {
    f.flat()[n] = std::sin(0.1 * static_cast<double>(n));
  }

  for (const std::string inject : {"eigen", "svd", "bound"}) {
    SCOPED_TRACE(inject);
    ASSERT_EQ(setenv("RMP_GUARD_INJECT", inject.c_str(), 1), 0);
    GuardOptions options;
    options.method = inject == "svd" ? "svd" : "pca";
    options.error_bound = 1e-2;
    const auto result = guarded_encode(f, codecs.pair(), options);
    unsetenv("RMP_GUARD_INJECT");

    EXPECT_NE(result.provenance.actual, options.method);
    ASSERT_FALSE(result.provenance.demotions.empty());
    EXPECT_EQ(result.provenance.demotions.front().from, options.method);
    EXPECT_TRUE(result.provenance.bound_satisfied);
  }
}

}  // namespace
}  // namespace rmp::core
