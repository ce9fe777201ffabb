// Negative-path sweep: every preconditioner must reject malformed
// containers with a clean exception -- missing sections, wrong method
// dispatch, mutilated metadata -- instead of crashing or fabricating
// output.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "compress/lossless.hpp"
#include "core/pipeline.hpp"
#include "core/serialize.hpp"

namespace rmp::core {
namespace {

sim::Field field3d() {
  sim::Field f(8, 8, 8);
  for (std::size_t n = 0; n < f.size(); ++n) {
    f.flat()[n] = std::sin(0.1 * static_cast<double>(n));
  }
  return f;
}

class DecodeErrors : public ::testing::TestWithParam<std::string> {};

TEST_P(DecodeErrors, EmptyContainerThrows) {
  const Codecs codecs = make_codecs("zfp");
  const auto preconditioner = make_preconditioner(GetParam());
  io::Container empty;
  empty.method = GetParam();
  empty.nx = 8;
  empty.ny = 8;
  empty.nz = 8;
  EXPECT_ANY_THROW(preconditioner->decode(empty, codecs.pair(), nullptr));
}

// one-base's and wavelet's "meta" sections are provenance only: decode
// reconstructs without them (one-base's mid index is implicit; wavelet
// defaults to the 2D transform).  Every other section is load-bearing.
bool section_is_advisory(const std::string& method,
                         const std::string& section) {
  return section == "meta" && (method == "one-base" || method == "wavelet");
}

TEST_P(DecodeErrors, DroppingAnySectionThrows) {
  const Codecs codecs = make_codecs("zfp");
  const auto preconditioner = make_preconditioner(GetParam());
  const io::Container complete =
      preconditioner->encode(field3d(), codecs.pair(), nullptr);

  for (std::size_t drop = 0; drop < complete.sections.size(); ++drop) {
    if (section_is_advisory(GetParam(), complete.sections[drop].name)) {
      continue;
    }
    io::Container mutilated = complete;
    mutilated.sections.erase(mutilated.sections.begin() +
                             static_cast<std::ptrdiff_t>(drop));
    EXPECT_ANY_THROW(preconditioner->decode(mutilated, codecs.pair(), nullptr))
        << "dropped section " << complete.sections[drop].name;
  }
}

TEST_P(DecodeErrors, CorruptedSectionBytesThrow) {
  const Codecs codecs = make_codecs("zfp");
  const auto preconditioner = make_preconditioner(GetParam());
  io::Container container =
      preconditioner->encode(field3d(), codecs.pair(), nullptr);

  for (auto& section : container.sections) {
    if (section.bytes.size() < 8) continue;
    if (section_is_advisory(GetParam(), section.name)) continue;
    auto saved = section.bytes;
    // Truncate the section hard: decoders must notice.
    section.bytes.resize(4);
    EXPECT_ANY_THROW(preconditioner->decode(container, codecs.pair(), nullptr))
        << "truncated section " << section.name;
    section.bytes = saved;
  }
}

// Stream-controlled shapes checked before use: a matrix header whose
// rows * cols * 8 wraps to zero, a pca-part meta with no rows, and
// blocked metas whose block count or word count disagrees with the
// container.
TEST_P(DecodeErrors, HostileShapesThrowInsteadOfCrashing) {
  const Codecs codecs = make_codecs("zfp");
  const auto preconditioner = make_preconditioner(GetParam());
  const io::Container complete =
      preconditioner->encode(field3d(), codecs.pair(), nullptr);
  const std::uint64_t wrapped[2] = {std::uint64_t{1} << 32,
                                    std::uint64_t{1} << 32};
  const std::uint64_t no_rows[1] = {0};
  const std::uint64_t no_blocks[3] = {0, 64, 8};
  const std::uint64_t oversized[3] = {1, std::uint64_t{1} << 40,
                                      std::uint64_t{1} << 20};

  const auto expect_throw = [&](const std::string& section,
                                std::span<const std::uint64_t> words,
                                bool typed) {
    io::Container mutated = complete;
    for (auto& s : mutated.sections) {
      if (s.name == section) s.bytes = u64s_to_bytes(words);
    }
    if (typed) {
      EXPECT_THROW(preconditioner->decode(mutated, codecs.pair(), nullptr),
                   io::ContainerError)
          << section;
    } else {
      EXPECT_ANY_THROW(
          preconditioner->decode(mutated, codecs.pair(), nullptr))
          << section;
    }
  };
  for (const auto& section : complete.sections) {
    const std::string& name = section.name;
    if (name == "v" || name == "u0" || name.rfind("basis", 0) == 0) {
      expect_throw(name, wrapped, /*typed=*/true);
    }
  }
  if (GetParam() == "pca-part") expect_throw("meta", no_rows, true);
  // A slab count far beyond nz must not size the slab table.
  const std::uint64_t huge_count[1] = {std::uint64_t{1} << 40};
  if (GetParam() == "multi-base") expect_throw("meta", huge_count, true);
  // A tucker core shape the core stream does not hold.
  const std::uint64_t huge_core[6] = {64, 64, 64, 8, 8, 8};
  if (GetParam() == "tucker") expect_throw("meta", huge_core, true);

  // Every decoder's delta must hold exactly nx*ny*nz cells: a valid
  // delta stream of half the cells is malformed, not an out-of-bounds
  // read or a usage error.
  if (complete.find("delta") != nullptr) {
    const std::vector<double> half(8 * 8 * 4, 0.5);
    io::Container mutated = complete;
    for (auto& s : mutated.sections) {
      if (s.name == "delta") s.bytes = codecs.delta->compress(half, {8, 8, 4});
    }
    EXPECT_THROW(preconditioner->decode(mutated, codecs.pair(), nullptr),
                 io::ContainerError);
  }
  if (GetParam().rfind("blocked-", 0) == 0) {
    expect_throw("meta", no_blocks, true);
    expect_throw("meta", oversized, true);
  }
}

// The codec streams a model's meta shapes: PCA scores, SVD U_k sigma_k,
// the Tucker core, projection planes, the identity payload; in blocked
// archives with the block suffix.
bool is_reduced_stream(const std::string& section) {
  const std::string base =
      section.substr(0, section.find_first_of("0123456789"));
  return base == "scores" || base == "u_sigma" || base == "core" ||
         base == "reduced" || base == "data";
}

// A meta section cut short, or a reduced stream holding other than the
// values its meta shapes, is a typed section error: never an index past
// the meta words or a usage error from shaping the values.
TEST_P(DecodeErrors, ShortMetaOrReducedStreamIsMalformed) {
  const Codecs codecs = make_codecs("zfp");
  const auto preconditioner = make_preconditioner(GetParam());
  const io::Container complete =
      preconditioner->encode(field3d(), codecs.pair(), nullptr);
  const auto expect_malformed = [&](const std::string& section,
                                    std::vector<std::uint8_t> bytes,
                                    const std::string& what) {
    io::Container mutated = complete;
    for (auto& s : mutated.sections) {
      if (s.name == section) s.bytes = bytes;
    }
    try {
      (void)preconditioner->decode(mutated, codecs.pair(), nullptr);
      ADD_FAILURE() << what << " decoded";
    } catch (const io::ContainerError& e) {
      EXPECT_EQ(e.code(), io::ContainerErrc::kSectionMalformed)
          << what << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": untyped " << e.what();
    }
  };

  const io::Section* meta = complete.find("meta");
  if (meta != nullptr && !section_is_advisory(GetParam(), "meta")) {
    const auto words = bytes_to_u64s(meta->bytes);
    for (const std::size_t keep : {0, 1}) {
      if (keep >= words.size()) continue;
      expect_malformed(
          "meta", u64s_to_bytes(std::span(words).first(keep)),
          "meta cut to " + std::to_string(keep) + " word(s)");
    }
  }
  for (const auto& section : complete.sections) {
    if (!is_reduced_stream(section.name)) continue;
    auto values = codecs.reduced->decompress(section.bytes);
    values.resize(values.size() > 1 ? values.size() - 1 : 2);
    expect_malformed(
        section.name,
        codecs.reduced->compress(values, compress::Dims::d1(values.size())),
        section.name + " holding " + std::to_string(values.size()) +
            " values");
  }
}

TEST_P(DecodeErrors, RoundTripStillWorksAfterNegativeTests) {
  // Guard against the negative tests hiding a broken happy path.
  const Codecs codecs = make_codecs("zfp");
  const auto preconditioner = make_preconditioner(GetParam());
  const sim::Field f = field3d();
  const auto container = preconditioner->encode(f, codecs.pair(), nullptr);
  const auto decoded = preconditioner->decode(container, codecs.pair(), nullptr);
  EXPECT_EQ(decoded.size(), f.size());
}

INSTANTIATE_TEST_SUITE_P(AllMethods, DecodeErrors,
                         ::testing::Values("identity", "one-base",
                                           "multi-base", "duomodel", "pca",
                                           "svd", "wavelet", "pca-part",
                                           "tucker", "blocked-svd",
                                           "blocked-wavelet",
                                           "blocked-tucker"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// The wavelet "sparse" section is an LZ-wrapped CSR matrix: rows, cols,
// nnz (u64 each), rows+1 u64 row offsets, nnz u32 column indices, nnz
// doubles.  Each patch below is re-wrapped so it passes the LZ layer and
// reaches the CSR reader; every one must be a typed section error, never
// a write through a hostile column, a read past the entry arrays or an
// allocation sized by a hostile count.
TEST(DecodeErrors, HostileWaveletSparseSectionIsMalformed) {
  const Codecs codecs = make_codecs("zfp");
  const auto preconditioner = make_preconditioner("wavelet");
  const io::Container complete =
      preconditioner->encode(field3d(), codecs.pair(), nullptr);
  const auto raw =
      compress::lossless_decompress(complete.find("sparse")->bytes);
  std::uint64_t header[3];
  ASSERT_GE(raw.size(), sizeof(header));
  std::memcpy(header, raw.data(), sizeof(header));
  const std::uint64_t rows = header[0];
  const std::uint64_t nnz = header[2];
  ASSERT_GT(nnz, 0u);
  const std::size_t offsets_at = sizeof(header);
  const std::size_t columns_at = offsets_at + (rows + 1) * 8;

  const auto expect_malformed = [&](std::size_t at, const auto& value,
                                    const char* what) {
    auto patched = raw;
    ASSERT_LE(at + sizeof(value), patched.size()) << what;
    std::memcpy(patched.data() + at, &value, sizeof(value));
    io::Container mutated = complete;
    for (auto& s : mutated.sections) {
      if (s.name == "sparse") s.bytes = compress::lossless_compress(patched);
    }
    try {
      (void)preconditioner->decode(mutated, codecs.pair(), nullptr);
      ADD_FAILURE() << what << " decoded";
    } catch (const io::ContainerError& e) {
      EXPECT_EQ(e.code(), io::ContainerErrc::kSectionMalformed)
          << what << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": untyped " << e.what();
    }
  };
  expect_malformed(columns_at, std::uint32_t{1} << 30, "column 2^30");
  expect_malformed(offsets_at + rows * 8, nnz + 1000, "last offset nnz+1000");
  expect_malformed(0, std::uint64_t{1} << 40, "rows 2^40");
  expect_malformed(0, ~std::uint64_t{0}, "rows 2^64-1");
  // Offsets must start at 0 and never decrease; cols must match the grid.
  expect_malformed(offsets_at, std::uint64_t{1}, "first offset 1");
  expect_malformed(offsets_at + 8, nnz + 1, "second offset past nnz");
  expect_malformed(8, header[1] + 1, "cols off by one");
}

TEST(DecodeErrors, ReconstructRejectsUnknownMethod) {
  const Codecs codecs = make_codecs("zfp");
  io::Container container;
  container.method = "martian";
  EXPECT_THROW(reconstruct(container, codecs.pair()), std::invalid_argument);
}

}  // namespace
}  // namespace rmp::core
