#include "io/checksum.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "fault_injection.hpp"
#include "io/container.hpp"

namespace rmp::io {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// The definition of the reflected CRC-32: one polynomial step per bit.
std::uint32_t bitwise_crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    c ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownVectors) {
  // Standard zlib test vectors.
  EXPECT_EQ(crc32({}), 0x00000000u);
  const auto check = bytes_of("123456789");
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  const auto hello = bytes_of("hello world");
  EXPECT_EQ(crc32(hello), 0x0D4A1185u);
}

TEST(Crc32, SensitiveToSingleBitFlip) {
  auto data = bytes_of("the quick brown fox");
  const std::uint32_t original = crc32(data);
  data[5] ^= 0x01;
  EXPECT_NE(crc32(data), original);
}

TEST(Crc32, SeedChaining) {
  const auto full = bytes_of("abcdef");
  const auto first = bytes_of("abc");
  const auto second = bytes_of("def");
  EXPECT_EQ(crc32(second, crc32(first)), crc32(full));
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  const auto buffer = random_bytes(1024 + 8, 0xC3C32u);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 1024; ++length) {
      const std::span<const std::uint8_t> view(buffer.data() + offset, length);
      ASSERT_EQ(crc32(view), bitwise_crc32(view))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, SeedChainingHoldsAtEverySplit) {
  const auto buffer = random_bytes(1031, 0x5EEDu);
  const std::span<const std::uint8_t> all(buffer);
  const std::uint32_t whole = crc32(all);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    ASSERT_EQ(crc32(all.subspan(split), crc32(all.first(split))), whole)
        << "split " << split;
  }
}

// Section sizes on both sides of the 8-byte word the parity XOR works in.
TEST(ContainerIntegrity, ParityRepairsEverySectionAcrossWordBoundaries) {
  Container c;
  c.method = "pca";
  const std::size_t sizes[] = {0, 1, 7, 8, 9, 4097};
  for (std::size_t s = 0; s < std::size(sizes); ++s) {
    c.add("s" + std::to_string(s), random_bytes(sizes[s], 17 + s));
  }
  const auto clean = serialize(c, {.with_parity = true});

  std::vector<std::uint8_t> expected(4097, 0);
  for (const auto& section : c.sections) {
    for (std::size_t k = 0; k < section.bytes.size(); ++k) {
      expected[k] ^= section.bytes[k];
    }
  }
  const std::vector<std::uint8_t> parity(clean.end() - 4097, clean.end());
  EXPECT_EQ(parity, expected);

  for (std::size_t s = 0; s < c.sections.size(); ++s) {
    if (c.sections[s].bytes.empty()) continue;  // nothing to damage
    auto bytes = clean;
    testing::corrupt_section(bytes, c, true, s);
    ReadReport report;
    const Container back = deserialize_salvage(bytes, &report);
    ASSERT_EQ(report.sections.size(), c.sections.size());
    EXPECT_EQ(report.sections[s].state, SectionState::kRepaired)
        << "section " << s;
    ASSERT_NE(back.find(c.sections[s].name), nullptr) << "section " << s;
    EXPECT_EQ(back.find(c.sections[s].name)->bytes, c.sections[s].bytes)
        << "section " << s;
  }
}

TEST(ContainerIntegrity, DetectsSectionCorruption) {
  Container c;
  c.method = "pca";
  c.nx = 2;
  c.add("delta", {10, 20, 30, 40, 50});
  auto bytes = serialize(c);
  // Flip a byte in the middle of the payload.
  bytes[bytes.size() / 2] ^= 0xFF;
  EXPECT_THROW(deserialize(bytes), std::runtime_error);
}

TEST(ContainerIntegrity, DetectsTrailerCorruption) {
  Container c;
  c.method = "svd";
  c.add("delta", {1, 2, 3});
  auto bytes = serialize(c);
  bytes.back() ^= 0x01;
  EXPECT_THROW(deserialize(bytes), std::runtime_error);
}

TEST(ContainerIntegrity, CleanRoundTripStillWorks) {
  Container c;
  c.method = "wavelet";
  c.nx = 3;
  c.ny = 4;
  c.nz = 5;
  c.add("sparse", {9, 8, 7});
  const Container back = deserialize(serialize(c));
  EXPECT_EQ(back.method, "wavelet");
  EXPECT_EQ(back.find("sparse")->bytes, (std::vector<std::uint8_t>{9, 8, 7}));
}

}  // namespace
}  // namespace rmp::io
