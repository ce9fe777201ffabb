// Randomized-but-deterministic fault-injection sweep over every
// preconditioner: corrupted archives must repair (parity), salvage
// (reduced-model-only best effort) or fail with a typed ContainerError --
// never crash and never silently return wrong data.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>

#include "core/pipeline.hpp"
#include "fault_injection.hpp"
#include "io/checksum.hpp"
#include "io/container.hpp"
#include "io/sequence_file.hpp"
#include "obs/obs.hpp"

namespace rmp::core {
namespace {

sim::Field field3d() {
  sim::Field f(8, 8, 8);
  for (std::size_t n = 0; n < f.size(); ++n) {
    f.flat()[n] = std::sin(0.1 * static_cast<double>(n));
  }
  return f;
}

bool sections_equal(const io::Container& a, const io::Container& b) {
  if (a.method != b.method || a.sections.size() != b.sections.size()) {
    return false;
  }
  for (std::size_t s = 0; s < a.sections.size(); ++s) {
    if (a.sections[s].name != b.sections[s].name ||
        a.sections[s].bytes != b.sections[s].bytes) {
      return false;
    }
  }
  return true;
}

class FaultInjection : public ::testing::TestWithParam<std::string> {
 protected:
  const Codecs codecs = make_codecs("zfp");
  io::Container encoded() {
    const auto preconditioner = make_preconditioner(GetParam());
    return preconditioner->encode(field3d(), codecs.pair(), nullptr);
  }
};

TEST_P(FaultInjection, CleanParityRoundTripReportsHealthy) {
  const auto container = encoded();
  const auto bytes = io::serialize(container, {.with_parity = true});
  io::ReadReport report;
  const auto decoded = io::deserialize(bytes, &report);
  EXPECT_TRUE(sections_equal(container, decoded));
  EXPECT_EQ(report.version, 3u);
  EXPECT_TRUE(report.parity_present);
  EXPECT_TRUE(report.parity_valid);
  EXPECT_TRUE(report.complete());
  EXPECT_FALSE(report.repaired());
}

TEST_P(FaultInjection, ParityRepairsEverySingleSectionLoss) {
  const auto container = encoded();
  const auto clean = io::serialize(container, {.with_parity = true});
  for (std::size_t s = 0; s < container.sections.size(); ++s) {
    if (container.sections[s].bytes.empty()) continue;
    auto bytes = clean;
    testing::corrupt_section(bytes, container, /*with_parity=*/true, s);
    io::ReadReport report;
    io::Container decoded;
    ASSERT_NO_THROW(decoded = io::deserialize(bytes, &report))
        << "section " << container.sections[s].name;
    EXPECT_TRUE(sections_equal(container, decoded))
        << "section " << container.sections[s].name;
    EXPECT_TRUE(report.repaired());
    ASSERT_LT(s, report.sections.size());
    EXPECT_EQ(report.sections[s].state, io::SectionState::kRepaired);
  }
}

TEST_P(FaultInjection, NoParityCorruptionThrowsTypedWithSectionName) {
  const auto container = encoded();
  const auto clean = io::serialize(container, {.with_parity = false});
  for (std::size_t s = 0; s < container.sections.size(); ++s) {
    if (container.sections[s].bytes.empty()) continue;
    auto bytes = clean;
    testing::corrupt_section(bytes, container, /*with_parity=*/false, s);
    try {
      io::deserialize(bytes);
      FAIL() << "corrupt section " << container.sections[s].name
             << " went undetected";
    } catch (const io::ContainerError& e) {
      EXPECT_EQ(e.code(), io::ContainerErrc::kSectionCorrupt);
      EXPECT_EQ(e.section(), container.sections[s].name);
    }
  }
}

TEST_P(FaultInjection, TruncationAlwaysThrowsTyped) {
  const auto container = encoded();
  const auto clean = io::serialize(container, {.with_parity = true});
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, clean.size() / 4,
        clean.size() / 2, clean.size() - 1}) {
    const auto bytes = testing::truncated(clean, keep);
    EXPECT_THROW((void)io::deserialize(bytes), io::ContainerError)
        << "kept " << keep << " of " << clean.size() << " bytes";
  }
}

TEST_P(FaultInjection, DoubleCorruptionWithParityIsRejectedNotMisrepaired) {
  const auto container = encoded();
  if (container.sections.size() < 2) {
    GTEST_SKIP() << "single-section archive";
  }
  auto bytes = io::serialize(container, {.with_parity = true});
  testing::corrupt_section(bytes, container, true, 0);
  testing::corrupt_section(bytes, container, true, 1);
  EXPECT_THROW((void)io::deserialize(bytes), io::ContainerError);
  // Salvage must still hand back the envelope with both sections flagged.
  io::ReadReport report;
  const auto salvaged = io::deserialize_salvage(bytes, &report);
  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.damaged().size(), 2u);
  EXPECT_EQ(salvaged.sections.size(), container.sections.size() - 2);
}

TEST_P(FaultInjection, RandomBitFlipsNeverYieldSilentlyWrongData) {
  const auto container = encoded();
  const auto baseline = reconstruct(container, codecs.pair());
  for (const bool with_parity : {false, true}) {
    const auto clean = io::serialize(container, {.with_parity = with_parity});
    std::mt19937_64 rng(0xF417C0DEu + with_parity);
    for (int trial = 0; trial < 40; ++trial) {
      auto bytes = clean;
      testing::flip_random_bit(bytes, rng);
      try {
        io::ReadReport report;
        const auto decoded = io::deserialize(bytes, &report);
        // Accepted reads must reproduce the archive exactly (either the
        // flip was repaired via parity or it never escaped detection
        // thanks to a CRC second preimage, which crc32 makes impossible
        // for single-bit flips).
        ASSERT_TRUE(sections_equal(container, decoded));
        const auto field = reconstruct(decoded, codecs.pair());
        for (std::size_t n = 0; n < field.size(); ++n) {
          ASSERT_EQ(field.flat()[n], baseline.flat()[n]);
        }
      } catch (const io::ContainerError&) {
        // Typed rejection is the other acceptable outcome.
      }
    }
  }
}

TEST_P(FaultInjection, DeltaLossSalvagesToReducedModelApproximation) {
  const auto container = encoded();
  std::size_t delta_index = container.sections.size();
  for (std::size_t s = 0; s < container.sections.size(); ++s) {
    if (container.sections[s].name == "delta") delta_index = s;
  }
  if (delta_index == container.sections.size()) {
    GTEST_SKIP() << GetParam() << " stores no delta section";
  }

  auto bytes = io::serialize(container, {.with_parity = false});
  testing::corrupt_section(bytes, container, false, delta_index);

  io::ReadReport report;
  const auto salvaged = io::deserialize_salvage(bytes, &report);
  ASSERT_FALSE(report.complete());
  const auto result =
      reconstruct_best_effort(salvaged, report, codecs.pair());
  EXPECT_FALSE(result.exact);
  EXPECT_TRUE(result.approximate);
  ASSERT_EQ(result.damaged_sections.size(), 1u);
  EXPECT_EQ(result.damaged_sections[0], "delta");
  EXPECT_EQ(result.field.nx(), 8u);
  EXPECT_EQ(result.field.ny(), 8u);
  EXPECT_EQ(result.field.nz(), 8u);
  for (const double v : result.field.flat()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST_P(FaultInjection, NonDeltaLossIsRejectedNotFabricated) {
  const auto container = encoded();
  const auto baseline = reconstruct(container, codecs.pair());
  auto bytes = io::serialize(container, {.with_parity = false});
  for (std::size_t s = 0; s < container.sections.size(); ++s) {
    if (container.sections[s].name == "delta" ||
        container.sections[s].bytes.empty()) {
      continue;
    }
    auto corrupt = bytes;
    testing::corrupt_section(corrupt, container, false, s);
    io::ReadReport report;
    const auto salvaged = io::deserialize_salvage(corrupt, &report);
    try {
      const auto result =
          reconstruct_best_effort(salvaged, report, codecs.pair());
      // Some decoders tolerate advisory-section loss (e.g. wavelet meta);
      // accepting is fine only when the output is not a silent lie about
      // exactness.
      EXPECT_FALSE(result.exact)
          << "lost " << container.sections[s].name << " claimed exact";
    } catch (const io::ContainerError&) {
      // Typed rejection is the expected path.
    }
  }
  (void)baseline;
}

INSTANTIATE_TEST_SUITE_P(AllPreconditioners, FaultInjection,
                         ::testing::ValuesIn(preconditioner_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Backward compatibility: v2 archives (whole-file CRC trailer) written by
// older builds must still read back unchanged.  The writer below replays
// the legacy layout byte for byte.

void v2_append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(v));
}

void v2_append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(v));
}

void v2_append_string(std::vector<std::uint8_t>& out, const std::string& s) {
  v2_append_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::vector<std::uint8_t> serialize_v2(const io::Container& container) {
  std::vector<std::uint8_t> out;
  v2_append_u32(out, 0x50434D52u);  // "RMCP"
  v2_append_u32(out, 2u);
  v2_append_string(out, container.method);
  v2_append_u64(out, container.nx);
  v2_append_u64(out, container.ny);
  v2_append_u64(out, container.nz);
  v2_append_u32(out, static_cast<std::uint32_t>(container.sections.size()));
  for (const auto& section : container.sections) {
    v2_append_string(out, section.name);
    v2_append_u64(out, section.bytes.size());
    out.insert(out.end(), section.bytes.begin(), section.bytes.end());
  }
  v2_append_u32(out, io::crc32(out));
  return out;
}

TEST(FaultInjectionV2Compat, LegacyArchivesStillRoundTrip) {
  const Codecs codecs = make_codecs("zfp");
  for (const auto& method : preconditioner_names()) {
    const auto preconditioner = make_preconditioner(method);
    const auto container =
        preconditioner->encode(field3d(), codecs.pair(), nullptr);
    const auto v2_bytes = serialize_v2(container);

    io::ReadReport report;
    const auto decoded = io::deserialize(v2_bytes, &report);
    EXPECT_TRUE(sections_equal(container, decoded)) << method;
    EXPECT_EQ(decoded.nx, container.nx);
    EXPECT_EQ(decoded.ny, container.ny);
    EXPECT_EQ(decoded.nz, container.nz);
    EXPECT_EQ(report.version, 2u);
    EXPECT_FALSE(report.parity_present);
    EXPECT_TRUE(report.complete());

    const auto baseline = reconstruct(container, codecs.pair());
    const auto roundtrip = reconstruct(decoded, codecs.pair());
    for (std::size_t n = 0; n < baseline.size(); ++n) {
      ASSERT_EQ(baseline.flat()[n], roundtrip.flat()[n]) << method;
    }
  }
}

// ---------------------------------------------------------------------------
// Syscall-level faults through the io::FileOps seam: durable writes must
// either complete byte-identically (transient faults, short writes) or
// fail with a typed error carrying the OS text, leaving no torn
// destination and no stray staging file (DESIGN.md §10).

namespace fs = std::filesystem;

class VfsFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rmp_vfs_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    obs::set_enabled(true);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static io::Container sample(int i) {
    io::Container c;
    c.method = "vfs_step" + std::to_string(i);
    c.nx = static_cast<std::uint64_t>(i + 1);
    c.add("data", std::vector<std::uint8_t>(static_cast<std::size_t>(16 + i),
                                            static_cast<std::uint8_t>(i)));
    return c;
  }

  static std::vector<char> slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    std::vector<char> bytes(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return bytes;
  }

  std::size_t stray_tmp_count() const {
    std::size_t strays = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().filename().string().find(".tmp.") !=
          std::string::npos) {
        ++strays;
      }
    }
    return strays;
  }

  fs::path dir_;
};

TEST_F(VfsFaultTest, WriteContainerEnospcFailsTypedAndCleansUp) {
  const auto dest = dir_ / "out.rmp";
  try {
    // Op 1 opens the staging temp; op 2 is the first payload write.
    testing::ScopedFaultInjection inject({io::FaultKind::kEnospc, 2});
    io::write_container(dest, sample(0));
    FAIL() << "full-disk write reported success";
  } catch (const io::ContainerError& e) {
    EXPECT_EQ(e.code(), io::ContainerErrc::kIoError);
    const std::string what = e.what();
    EXPECT_NE(what.find("write_container"), std::string::npos) << what;
    EXPECT_NE(what.find("No space left"), std::string::npos) << what;
  }
  EXPECT_FALSE(fs::exists(dest));
  EXPECT_EQ(stray_tmp_count(), 0u);
}

TEST_F(VfsFaultTest, WriteContainerRetriesTransientEintr) {
  const auto clean_dest = dir_ / "clean.rmp";
  const auto dest = dir_ / "out.rmp";
  io::write_container(clean_dest, sample(1));

  const auto before = obs::Registry::global().counter_value("io.retry.attempts");
  {
    testing::ScopedFaultInjection inject({io::FaultKind::kEintr, 2, 3});
    io::write_container(dest, sample(1));
    EXPECT_EQ(inject.faults_injected(), 3u);
  }
  EXPECT_EQ(obs::Registry::global().counter_value("io.retry.attempts"),
            before + 3);
  EXPECT_EQ(slurp(dest), slurp(clean_dest));
  EXPECT_EQ(stray_tmp_count(), 0u);
}

TEST_F(VfsFaultTest, WriteContainerSurvivesShortWrites) {
  const auto clean_dest = dir_ / "clean.rmp";
  const auto dest = dir_ / "out.rmp";
  io::write_container(clean_dest, sample(2));

  const auto before =
      obs::Registry::global().counter_value("io.retry.short_writes");
  {
    testing::ScopedFaultInjection inject({io::FaultKind::kShort, 2, 4});
    io::write_container(dest, sample(2));
    EXPECT_GE(inject.faults_injected(), 1u);
  }
  EXPECT_GT(obs::Registry::global().counter_value("io.retry.short_writes"),
            before);
  EXPECT_EQ(slurp(dest), slurp(clean_dest));
  EXPECT_EQ(stray_tmp_count(), 0u);
}

TEST_F(VfsFaultTest, ExhaustedTransientRetriesBecomeTyped) {
  const auto dest = dir_ / "out.rmp";
  const auto before =
      obs::Registry::global().counter_value("io.retry.exhausted");
  try {
    // More consecutive EINTRs than the policy's attempt budget.
    testing::ScopedFaultInjection inject({io::FaultKind::kEintr, 2, 64});
    io::write_container(dest, sample(3));
    FAIL() << "endless EINTR stream reported success";
  } catch (const io::ContainerError& e) {
    EXPECT_EQ(e.code(), io::ContainerErrc::kIoError);
  }
  EXPECT_GT(obs::Registry::global().counter_value("io.retry.exhausted"),
            before);
  EXPECT_FALSE(fs::exists(dest));
  EXPECT_EQ(stray_tmp_count(), 0u);
}

TEST_F(VfsFaultTest, SequenceAppendEnospcKeepsCommittedPrefix) {
  const auto dest = dir_ / "seq.rmps";
  {
    io::SequenceWriter writer(dest);
    writer.append(sample(0));
    try {
      // Every faultable op fails while installed: the append must surface
      // a typed error without damaging the committed first step.
      testing::ScopedFaultInjection inject({io::FaultKind::kEnospc, 1, 1u << 20});
      writer.append(sample(1));
      FAIL() << "append on a full disk reported success";
    } catch (const io::ContainerError& e) {
      EXPECT_EQ(e.code(), io::ContainerErrc::kIoError);
      EXPECT_NE(std::string(e.what()).find("No space left"), std::string::npos);
    }
    // The writer is poisoned: later appends point the caller at resume.
    EXPECT_THROW(writer.append(sample(1)), io::ContainerError);
  }
  auto writer = io::SequenceWriter::resume(dest);
  ASSERT_EQ(writer.steps_written(), 1u);
  writer.append(sample(1));
  writer.finish();

  io::SequenceReader reader(dest);
  ASSERT_EQ(reader.step_count(), 2u);
  EXPECT_EQ(reader.read_step(0).method, "vfs_step0");
  EXPECT_EQ(reader.read_step(1).method, "vfs_step1");
}

TEST_F(VfsFaultTest, AlreadyExpiredDeadlineRefusesToStartWriting) {
  const auto dest = dir_ / "late.rmp";
  io::SerializeOptions options;
  options.retry.deadline = std::chrono::steady_clock::now() -
                           std::chrono::milliseconds(1);
  const auto before =
      obs::Registry::global().counter_value("io.retry.deadline_exceeded");
  try {
    io::write_container(dest, sample(4), options);
    FAIL() << "expired deadline still wrote";
  } catch (const io::ContainerError& e) {
    EXPECT_EQ(e.code(), io::ContainerErrc::kDeadlineExceeded);
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
  EXPECT_GT(
      obs::Registry::global().counter_value("io.retry.deadline_exceeded"),
      before);
  EXPECT_FALSE(fs::exists(dest));
  EXPECT_EQ(stray_tmp_count(), 0u);
}

TEST_F(VfsFaultTest, DeadlineCapsTransientRetryLoops) {
  // A generous attempt budget but a tiny wall-clock budget: the endless
  // EINTR stream must be abandoned as kDeadlineExceeded (the deadline
  // caps how *long*), not retried to attempt exhaustion.
  const auto dest = dir_ / "capped.rmp";
  io::SerializeOptions options;
  options.retry.max_attempts = 1'000'000;
  options.retry.base_delay = std::chrono::microseconds(200);
  options.retry.deadline = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(50);
  try {
    testing::ScopedFaultInjection inject({io::FaultKind::kEintr, 1, 1u << 20});
    io::write_container(dest, sample(5), options);
    FAIL() << "deadline never fired";
  } catch (const io::ContainerError& e) {
    EXPECT_EQ(e.code(), io::ContainerErrc::kDeadlineExceeded) << e.what();
  }
  EXPECT_FALSE(fs::exists(dest));
  EXPECT_EQ(stray_tmp_count(), 0u);
}

TEST_F(VfsFaultTest, SequenceWriterHonorsThreadedDeadline) {
  // set_retry is how rmpd threads a per-request deadline into a
  // long-lived journal writer; clearing it afterwards must restore the
  // writer to normal service for the next request.
  const auto dest = dir_ / "deadline.rmps";
  io::SequenceWriter writer(dest);
  writer.append(sample(0));

  io::RetryPolicy expired;
  expired.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  writer.set_retry(expired);
  try {
    writer.append(sample(1));
    FAIL() << "append past the deadline succeeded";
  } catch (const io::ContainerError& e) {
    EXPECT_EQ(e.code(), io::ContainerErrc::kDeadlineExceeded) << e.what();
  }

  // A pre-write deadline expiry must NOT poison the writer: nothing was
  // torn, so clearing the deadline restores normal service.
  writer.set_retry(io::RetryPolicy{});
  writer.append(sample(1));
  writer.finish();
  io::SequenceReader reader(dest);
  EXPECT_EQ(reader.step_count(), 2u);
}

TEST(VfsFaultSpec, ParsesTheDocumentedGrammar) {
  const auto enospc = io::FaultSpec::parse("enospc@3");
  ASSERT_TRUE(enospc.has_value());
  EXPECT_EQ(enospc->kind, io::FaultKind::kEnospc);
  EXPECT_EQ(enospc->at, 3u);
  EXPECT_EQ(enospc->repeat, 1u);

  const auto eintr = io::FaultSpec::parse("eintr@2x5");
  ASSERT_TRUE(eintr.has_value());
  EXPECT_EQ(eintr->kind, io::FaultKind::kEintr);
  EXPECT_EQ(eintr->at, 2u);
  EXPECT_EQ(eintr->repeat, 5u);

  EXPECT_FALSE(io::FaultSpec::parse("").has_value());
  EXPECT_FALSE(io::FaultSpec::parse("enospc").has_value());
  EXPECT_FALSE(io::FaultSpec::parse("enospc@0").has_value());
  EXPECT_FALSE(io::FaultSpec::parse("enospc@x").has_value());
  EXPECT_FALSE(io::FaultSpec::parse("lightning@3").has_value());
  EXPECT_FALSE(io::FaultSpec::parse("eintr@2x0").has_value());
}

TEST(FaultInjectionV2Compat, FlippedV2ByteStillDetected) {
  const Codecs codecs = make_codecs("zfp");
  const auto preconditioner = make_preconditioner("pca");
  const auto container =
      preconditioner->encode(field3d(), codecs.pair(), nullptr);
  auto bytes = serialize_v2(container);
  bytes[bytes.size() / 2] ^= 0x10u;
  try {
    io::deserialize(bytes);
    FAIL() << "corrupt v2 archive went undetected";
  } catch (const io::ContainerError& e) {
    EXPECT_EQ(e.code(), io::ContainerErrc::kChecksumMismatch);
  }
}

}  // namespace
}  // namespace rmp::core
