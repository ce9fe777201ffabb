// End-to-end smoke tests of the rmpc command-line tool: write a raw
// float64 field, compress it with several methods, decompress, and check
// the round trip on disk.  RMPC_BINARY is injected by CMake.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "compress/codec_error.hpp"
#include "core/preconditioner.hpp"
#include "io/container.hpp"
#include "tools/exit_codes.hpp"

namespace {

namespace fs = std::filesystem;

#ifndef RMPC_BINARY
#error "RMPC_BINARY must be defined by the build"
#endif

std::string quoted(const fs::path& p) { return "\"" + p.string() + "\""; }

int run_rmpc(const std::string& args) {
  const std::string command =
      std::string(RMPC_BINARY) + " " + args + " > /dev/null 2>&1";
  return std::system(command.c_str());
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest runs the discovered cases concurrently,
    // so a shared directory would let one TearDown delete another's files.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("rmpc_cli_test_") + info->name());
    fs::create_directories(dir_);
    // A 16x16x16 smooth field.
    data_.resize(16 * 16 * 16);
    for (std::size_t i = 0; i < data_.size(); ++i) {
      data_[i] = std::sin(0.01 * static_cast<double>(i)) * 40.0;
    }
    input_ = dir_ / "input.f64";
    std::ofstream file(input_, std::ios::binary);
    file.write(reinterpret_cast<const char*>(data_.data()),
               static_cast<std::streamsize>(data_.size() * sizeof(double)));
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<double> read_back(const fs::path& path) {
    std::ifstream file(path, std::ios::binary | std::ios::ate);
    const auto bytes = static_cast<std::size_t>(file.tellg());
    std::vector<double> values(bytes / sizeof(double));
    file.seekg(0);
    file.read(reinterpret_cast<char*>(values.data()),
              static_cast<std::streamsize>(bytes));
    return values;
  }

  fs::path dir_;
  fs::path input_;
  std::vector<double> data_;
};

TEST_F(CliTest, CompressDecompressRoundTrip) {
  const fs::path archive = dir_ / "field.rmp";
  const fs::path output = dir_ / "output.f64";
  ASSERT_EQ(run_rmpc("compress " + quoted(input_) + " " + quoted(archive) +
                     " --dims 16,16,16 --method pca --codec sz"),
            0);
  ASSERT_TRUE(fs::exists(archive));
  EXPECT_LT(fs::file_size(archive), fs::file_size(input_));

  ASSERT_EQ(run_rmpc("decompress " + quoted(archive) + " " + quoted(output) +
                     " --codec sz"),
            0);
  const auto decoded = read_back(output);
  ASSERT_EQ(decoded.size(), data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i) {
    ASSERT_NEAR(decoded[i], data_[i], 0.05) << i;
  }
}

TEST_F(CliTest, EveryMethodCompresses) {
  for (const std::string method :
       {"identity", "one-base", "multi-base", "pca", "svd", "wavelet",
        "tucker"}) {
    const fs::path archive = dir_ / (method + ".rmp");
    EXPECT_EQ(run_rmpc("compress " + quoted(input_) + " " + quoted(archive) +
                       " --dims 16,16,16 --method " + method),
              0)
        << method;
    EXPECT_TRUE(fs::exists(archive)) << method;
  }
}

TEST_F(CliTest, AutoMethodSelection) {
  const fs::path archive = dir_ / "auto.rmp";
  EXPECT_EQ(run_rmpc("compress " + quoted(input_) + " " + quoted(archive) +
                     " --dims 16,16,16 --method auto"),
            0);
  EXPECT_TRUE(fs::exists(archive));
}

TEST_F(CliTest, InfoAndStatsAndPredictSucceed) {
  const fs::path archive = dir_ / "info.rmp";
  ASSERT_EQ(run_rmpc("compress " + quoted(input_) + " " + quoted(archive) +
                     " --dims 16,16,16"),
            0);
  EXPECT_EQ(run_rmpc("info " + quoted(archive)), 0);
  EXPECT_EQ(run_rmpc("predict " + quoted(input_) + " --dims 16,16,16"), 0);
  EXPECT_EQ(run_rmpc("stats " + quoted(input_) + " --dims 16,16,16"), 0);
}

TEST_F(CliTest, BadInvocationsFail) {
  EXPECT_NE(run_rmpc(""), 0);
  EXPECT_NE(run_rmpc("frobnicate x y"), 0);
  // Wrong dims (size mismatch).
  EXPECT_NE(run_rmpc("compress " + quoted(input_) + " " +
                     quoted(dir_ / "x.rmp") + " --dims 7,7,7"),
            0);
  // Missing file.
  EXPECT_NE(run_rmpc("decompress " + quoted(dir_ / "missing.rmp") + " " +
                     quoted(dir_ / "y.f64")),
            0);
  // Unknown codec.
  EXPECT_NE(run_rmpc("compress " + quoted(input_) + " " +
                     quoted(dir_ / "z.rmp") + " --dims 16,16,16 --codec gzip"),
            0);
}

#ifdef RMPGEN_BINARY
TEST_F(CliTest, RmpgenToRmpcPipeline) {
  // Generate a dataset with rmpgen, then compress it with rmpc.
  const fs::path raw = dir_ / "gen.f64";
  const std::string gen = std::string(RMPGEN_BINARY) + " Sedov_pres " +
                          quoted(raw) + " --scale 0.4 > /dev/null 2>&1";
  ASSERT_EQ(std::system(gen.c_str()), 0);
  ASSERT_TRUE(fs::exists(raw));
  const auto doubles = fs::file_size(raw) / sizeof(double);
  const auto n = static_cast<std::size_t>(std::lround(
      std::cbrt(static_cast<double>(doubles))));
  ASSERT_EQ(n * n * n, doubles);

  const std::string dims = std::to_string(n) + "," + std::to_string(n) +
                           "," + std::to_string(n);
  EXPECT_EQ(run_rmpc("compress " + quoted(raw) + " " +
                     quoted(dir_ / "gen.rmp") + " --dims " + dims +
                     " --method auto"),
            0);
}

TEST_F(CliTest, RmpgenListAndErrors) {
  ASSERT_EQ(std::system((std::string(RMPGEN_BINARY) +
                         " list > /dev/null 2>&1")
                            .c_str()),
            0);
  EXPECT_NE(std::system((std::string(RMPGEN_BINARY) +
                         " NotADataset /tmp/x.f64 > /dev/null 2>&1")
                            .c_str()),
            0);
}
#endif

void corrupt_byte(const fs::path& path, std::uintmax_t offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  file.read(&b, 1);
  b = static_cast<char>(b ^ 0x2A);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&b, 1);
}

TEST_F(CliTest, VerifyArchiveModeReportsHealthy) {
  const fs::path archive = dir_ / "healthy.rmp";
  ASSERT_EQ(run_rmpc("compress " + quoted(input_) + " " + quoted(archive) +
                     " --dims 16,16,16 --method pca"),
            0);
  EXPECT_EQ(run_rmpc("verify " + quoted(archive)), 0);
}

TEST_F(CliTest, ParityRepairsCorruptionEndToEnd) {
  const fs::path archive = dir_ / "damaged.rmp";
  const fs::path repaired = dir_ / "repaired.rmp";
  const fs::path output = dir_ / "repaired.f64";
  // Parity is on by default; flip a byte in the middle of the file, which
  // lands inside exactly one section payload.
  ASSERT_EQ(run_rmpc("compress " + quoted(input_) + " " + quoted(archive) +
                     " --dims 16,16,16 --method pca"),
            0);
  corrupt_byte(archive, fs::file_size(archive) / 2);

  EXPECT_EQ(run_rmpc("verify " + quoted(archive)), 0);  // repairable => OK
  ASSERT_EQ(run_rmpc("repair " + quoted(archive) + " " + quoted(repaired)), 0);
  EXPECT_EQ(run_rmpc("verify " + quoted(repaired)), 0);
  ASSERT_EQ(run_rmpc("decompress " + quoted(repaired) + " " + quoted(output)),
            0);
  const auto decoded = read_back(output);
  ASSERT_EQ(decoded.size(), data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i) {
    ASSERT_NEAR(decoded[i], data_[i], 0.05) << i;
  }
}

TEST_F(CliTest, UnprotectedCorruptionFailsVerifyAndRepair) {
  const fs::path archive = dir_ / "noparity.rmp";
  ASSERT_EQ(run_rmpc("compress " + quoted(input_) + " " + quoted(archive) +
                     " --dims 16,16,16 --method pca --no-parity"),
            0);
  // v3 keeps payloads at the end; the 16-byte "meta" section is last, so
  // offset size-20 lands inside the "delta" payload.
  corrupt_byte(archive, fs::file_size(archive) - 20);

  EXPECT_NE(run_rmpc("verify " + quoted(archive)), 0);
  EXPECT_NE(run_rmpc("repair " + quoted(archive) + " " +
                     quoted(dir_ / "cant.rmp")),
            0);
  EXPECT_NE(run_rmpc("decompress " + quoted(archive) + " " +
                     quoted(dir_ / "cant.f64")),
            0);
}

TEST_F(CliTest, BestEffortDecompressSurvivesDeltaLoss) {
  const fs::path archive = dir_ / "salvage.rmp";
  const fs::path output = dir_ / "salvage.f64";
  ASSERT_EQ(run_rmpc("compress " + quoted(input_) + " " + quoted(archive) +
                     " --dims 16,16,16 --method pca --no-parity"),
            0);
  corrupt_byte(archive, fs::file_size(archive) - 20);  // delta payload

  ASSERT_EQ(run_rmpc("decompress " + quoted(archive) + " " + quoted(output) +
                     " --best-effort"),
            0);
  const auto decoded = read_back(output);
  ASSERT_EQ(decoded.size(), data_.size());
  // The reduced-model-only approximation is lossier than the full decode
  // but must still track the data.
  double max_err = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    max_err = std::max(max_err, std::abs(decoded[i] - data_[i]));
  }
  EXPECT_LT(max_err, 40.0);
}

TEST_F(CliTest, MalformedNumericFlagsAreTypedUsageErrors) {
  const std::string compress_prefix = "compress " + quoted(input_) + " " +
                                      quoted(dir_ / "x.rmp") + " ";
  // Every malformed numeric value must exit with the usage status (2,
  // i.e. nonzero), never an uncaught exception (which would abort).
  for (const std::string bad :
       {std::string("--dims 16,16,16 --error-bound=abc"),
        std::string("--dims 16,16,16 --error-bound="),
        std::string("--dims 16,16,16 --error-bound -1"),
        std::string("--dims 16,16,16 --error-bound nan"),
        std::string("--dims 16,16,16 --verify-bound bogus"),
        std::string("--dims abc"), std::string("--dims ''"),
        std::string("--dims 16,-2,16"), std::string("--dims 0,16,16"),
        std::string("--dims 16,16,16,16"), std::string("--dims 16,,16"),
        std::string("--dims 16.5"), std::string("--dims 16x16x16"),
        std::string("--dims 16,16,16 --step -1"),
        std::string("--dims 16,16,16 --retries 1001"),
        std::string("--dims 16,16,16 --token 0")}) {
    const int status = run_rmpc(compress_prefix + bad);
    // std::system reports abnormal termination (uncaught throw -> abort)
    // as a non-exited status; a typed usage error always exits cleanly.
    ASSERT_TRUE(WIFEXITED(status)) << bad;
    EXPECT_EQ(WEXITSTATUS(status), 2) << bad;
  }
#ifdef RMPD_BINARY
  // The daemon flags parse the same way under both front ends.
  for (const std::string bad :
       {std::string("--port=abc"), std::string("--port 70000"),
        std::string("--workers"), std::string("--bogus")}) {
    for (const std::string& command :
         {std::string(RMPD_BINARY) + " " + bad,
          std::string(RMPC_BINARY) + " serve " + bad}) {
      const int status =
          std::system((command + " > /dev/null 2>&1").c_str());
      ASSERT_TRUE(WIFEXITED(status)) << command;
      EXPECT_EQ(WEXITSTATUS(status), 2) << command;
    }
  }
#endif
}

TEST_F(CliTest, EqualsFlagSyntaxWorks) {
  const fs::path archive = dir_ / "eq.rmp";
  EXPECT_EQ(run_rmpc("compress " + quoted(input_) + " " + quoted(archive) +
                     " --dims=16,16,16 --method=pca --codec=sz"
                     " --error-bound=0.5"),
            0);
  EXPECT_TRUE(fs::exists(archive));
  // Zero is a legal step index and a legal retry budget.
  EXPECT_EQ(run_rmpc("compress " + quoted(input_) + " " + quoted(archive) +
                     " --dims 16,16,16 --step 0 --retries=0"),
            0);
}

TEST_F(CliTest, StatsFlagEmitsValidJson) {
  const fs::path archive = dir_ / "stats.rmp";
  const fs::path stats = dir_ / "stats.json";
  ASSERT_EQ(run_rmpc("compress " + quoted(input_) + " " + quoted(archive) +
                     " --dims 16,16,16 --method pca --stats=" +
                     stats.string()),
            0);
  ASSERT_TRUE(fs::exists(stats));
  // The emitted report must pass its own schema validator.
  EXPECT_EQ(run_rmpc("stats " + quoted(stats)), 0);
}

TEST_F(CliTest, StatsValidationRejectsBadJson) {
  const fs::path bogus = dir_ / "bogus.json";
  std::ofstream(bogus) << "{\"schema\": \"rmp-obs-v1\"}";
  EXPECT_NE(run_rmpc("stats " + quoted(bogus)), 0);
  const fs::path garbage = dir_ / "garbage.json";
  std::ofstream(garbage) << "not json";
  EXPECT_NE(run_rmpc("stats " + quoted(garbage)), 0);
  EXPECT_NE(run_rmpc("stats " + quoted(dir_ / "missing.json")), 0);
}

TEST_F(CliTest, ArchivesAreByteIdenticalWithObsOnAndOff) {
  const fs::path with_obs = dir_ / "obs_on.rmp";
  const fs::path without_obs = dir_ / "obs_off.rmp";
  const std::string tail = " --dims 16,16,16 --method pca --codec sz";
  const std::string on = "RMP_OBS=1 " + std::string(RMPC_BINARY) +
                         " compress " + quoted(input_) + " " +
                         quoted(with_obs) + tail + " --stats > /dev/null 2>&1";
  const std::string off = "RMP_OBS=0 " + std::string(RMPC_BINARY) +
                          " compress " + quoted(input_) + " " +
                          quoted(without_obs) + tail + " > /dev/null 2>&1";
  ASSERT_EQ(std::system(on.c_str()), 0);
  ASSERT_EQ(std::system(off.c_str()), 0);
  std::ifstream a(with_obs, std::ios::binary);
  std::ifstream b(without_obs, std::ios::binary);
  const std::vector<char> bytes_a{std::istreambuf_iterator<char>(a), {}};
  const std::vector<char> bytes_b{std::istreambuf_iterator<char>(b), {}};
  EXPECT_EQ(bytes_a, bytes_b);
}

int run_rmpc_env(const std::string& env, const std::string& args) {
  const std::string command = env + " " + std::string(RMPC_BINARY) + " " +
                              args + " > /dev/null 2>&1";
  return std::system(command.c_str());
}

std::vector<char> slurp_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

TEST_F(CliTest, SequenceWriteAndResumeAfterInjectedCrash) {
  const fs::path ref = dir_ / "ref.rmps";
  const fs::path out = dir_ / "out.rmps";
  const std::string inputs =
      quoted(input_) + " " + quoted(input_) + " " + quoted(input_);
  const std::string tail = " --dims 16,16,16 --method pca --codec sz";

  ASSERT_EQ(run_rmpc("sequence " + inputs + " " + quoted(ref) + tail), 0);
  ASSERT_TRUE(fs::exists(ref));

  // Simulated crash partway through the third step's write: the run must
  // exit with a typed error (not a signal) and leave a resumable journal,
  // never a torn destination.
  const int status = run_rmpc_env("RMP_IO_INJECT=kill@8",
                                  "sequence " + inputs + " " + quoted(out) +
                                      tail);
  ASSERT_NE(status, 0);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_FALSE(fs::exists(out));
  EXPECT_TRUE(fs::exists(dir_ / "out.rmps.part"));

  ASSERT_EQ(run_rmpc("resume " + inputs + " " + quoted(out) + tail), 0);
  ASSERT_TRUE(fs::exists(out));
  EXPECT_FALSE(fs::exists(dir_ / "out.rmps.part"));
  EXPECT_EQ(slurp_bytes(out), slurp_bytes(ref));
}

TEST_F(CliTest, ResumeOnCompleteArchiveIsANoOp) {
  const fs::path out = dir_ / "done.rmps";
  const std::string inputs = quoted(input_) + " " + quoted(input_);
  const std::string tail = " --dims 16,16,16 --method pca";
  ASSERT_EQ(run_rmpc("sequence " + inputs + " " + quoted(out) + tail), 0);
  const auto before = slurp_bytes(out);
  EXPECT_EQ(run_rmpc("resume " + inputs + " " + quoted(out) + tail), 0);
  EXPECT_EQ(slurp_bytes(out), before);
}

TEST_F(CliTest, SeekableSequenceStepDecodeAndTornTrailerSalvage) {
  const fs::path seq = dir_ / "steps.rmps";
  const std::string inputs =
      quoted(input_) + " " + quoted(input_) + " " + quoted(input_);
  ASSERT_EQ(run_rmpc("sequence " + inputs + " " + quoted(seq) +
                     " --dims 16,16,16 --method pca --seekable"),
            0);

  // Whole-sequence decode (parallel chunked path) = 3 concatenated steps.
  const fs::path all = dir_ / "all.f64";
  ASSERT_EQ(run_rmpc("decompress " + quoted(seq) + " " + quoted(all)), 0);
  const auto whole = read_back(all);
  ASSERT_EQ(whole.size(), data_.size() * 3);

  // --step K (0-based: step 0 must parse) decodes exactly slice K.
  for (const std::size_t step : {std::size_t{0}, std::size_t{2}}) {
    const fs::path one = dir_ / ("step" + std::to_string(step) + ".f64");
    ASSERT_EQ(run_rmpc("decompress " + quoted(seq) + " " + quoted(one) +
                       " --step " + std::to_string(step)),
              0);
    const auto decoded = read_back(one);
    ASSERT_EQ(decoded.size(), data_.size());
    EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(),
                           whole.begin() + static_cast<std::ptrdiff_t>(
                                               step * data_.size())))
        << "step " << step;
  }

  // A trailer torn by truncation must route to the index rebuild, and
  // the salvaged decode must match the clean one.
  const fs::path torn = dir_ / "torn.rmps";
  fs::copy_file(seq, torn);
  fs::resize_file(torn, fs::file_size(torn) - 5);
  const fs::path salvaged = dir_ / "salvaged.f64";
  ASSERT_EQ(run_rmpc("decompress " + quoted(torn) + " " + quoted(salvaged)),
            0);
  EXPECT_EQ(slurp_bytes(salvaged), slurp_bytes(all));

  // --step on a plain (non-sequence) container stays a usage error.
  const fs::path archive = dir_ / "plain.rmp";
  ASSERT_EQ(run_rmpc("compress " + quoted(input_) + " " + quoted(archive) +
                     " --dims 16,16,16 --method pca"),
            0);
  const int status = run_rmpc("decompress " + quoted(archive) + " " +
                              quoted(dir_ / "x.f64") + " --step 0");
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
}

TEST_F(CliTest, InjectedDiskFullIsATypedErrorNotACrash) {
  const fs::path archive = dir_ / "full_disk.rmp";
  const int status = run_rmpc_env(
      "RMP_IO_INJECT=enospc@2",
      "compress " + quoted(input_) + " " + quoted(archive) +
          " --dims 16,16,16 --method pca");
  ASSERT_TRUE(WIFEXITED(status)) << "rmpc crashed instead of reporting";
  // ENOSPC is an I/O failure: exit code 3 per the documented table.
  EXPECT_EQ(WEXITSTATUS(status), 3);
  EXPECT_FALSE(fs::exists(archive));
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << "leaked staging file " << entry.path();
  }
}

TEST_F(CliTest, InjectedTransientFaultIsRetriedToByteIdenticalOutput) {
  const fs::path clean = dir_ / "clean.rmp";
  const fs::path faulted = dir_ / "faulted.rmp";
  const fs::path stats = dir_ / "stats.json";
  const std::string tail = " --dims 16,16,16 --method pca --codec sz";
  ASSERT_EQ(run_rmpc("compress " + quoted(input_) + " " + quoted(clean) +
                     tail),
            0);
  ASSERT_EQ(run_rmpc_env("RMP_IO_INJECT=eintr@2",
                         "compress " + quoted(input_) + " " +
                             quoted(faulted) + tail + " --stats=" +
                             stats.string()),
            0);
  EXPECT_EQ(slurp_bytes(faulted), slurp_bytes(clean));
  // The retry must be visible in the observability report.
  const std::string report(slurp_bytes(stats).data(),
                           slurp_bytes(stats).size());
  EXPECT_NE(report.find("io.retry.attempts"), std::string::npos);
  EXPECT_NE(report.find("io.fault.eintr"), std::string::npos);
}

// The exit-code table in README.md ("Exit codes") is a contract: shell
// scripts dispatch on these numbers, so each class is locked down here.
TEST_F(CliTest, UsageErrorsExitWithCode2) {
  int status = run_rmpc("compress " + quoted(input_) + " " +
                        quoted(dir_ / "u.rmp") + " --dims banana");
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  status = run_rmpc("compress " + quoted(input_) + " " +
                    quoted(dir_ / "u.rmp") + " --dims 16,16,16 --codec gzip");
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  // dims/size mismatch is a usage error, not an I/O error.
  status = run_rmpc("compress " + quoted(input_) + " " +
                    quoted(dir_ / "u.rmp") + " --dims 7,7,7");
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  status = run_rmpc("frobnicate x y");
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
}

TEST_F(CliTest, IoErrorsExitWithCode3) {
  const int status = run_rmpc("compress " + quoted(dir_ / "missing.f64") +
                              " " + quoted(dir_ / "io.rmp") +
                              " --dims 16,16,16");
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 3);
}

TEST_F(CliTest, IntegrityFailuresExitWithCode4) {
  const fs::path archive = dir_ / "broken.rmp";
  ASSERT_EQ(run_rmpc("compress " + quoted(input_) + " " + quoted(archive) +
                     " --dims 16,16,16 --method pca --no-parity"),
            0);
  corrupt_byte(archive, fs::file_size(archive) - 20);  // delta payload
  int status = run_rmpc("verify " + quoted(archive));
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 4);
  status = run_rmpc("decompress " + quoted(archive) + " " +
                    quoted(dir_ / "broken.f64"));
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 4);
}

// A delta stream that parses but holds the wrong number of cells, or one
// cut short under a valid container CRC, is damaged archive bytes: exit 4
// (not a usage error, not an internal one).
TEST_F(CliTest, MalformedDeltaStreamsExitWithCode4) {
  const auto field = rmp::sim::Field::from_data(16, 16, 16, data_);
  for (const std::string codec : {"zfp", "sz"}) {
    const auto codecs = rmp::core::make_codecs(codec);
    rmp::io::Container container =
        rmp::core::make_preconditioner("pca")->encode(field, codecs.pair());
    for (auto& section : container.sections) {
      if (section.name != "delta") continue;
      if (codec == "zfp") {
        const std::vector<double> half(16 * 16 * 8, 0.5);
        section.bytes = codecs.delta->compress(half, {16, 16, 8});
      } else {
        section.bytes.resize(section.bytes.size() / 2);
      }
    }
    const fs::path archive = dir_ / ("bad_delta_" + codec + ".rmp");
    const auto bytes = rmp::io::serialize(container);
    std::ofstream(archive, std::ios::binary)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    const int status = run_rmpc("decompress " + quoted(archive) + " " +
                                quoted(dir_ / "out.f64") + " --codec " + codec);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 4) << codec;
  }
}

// Exit code 9 (server shutting down) is distinct from the transient
// BUSY class 7: scripts wait for a restart on 9 but back off and retry
// on 7.  The full mapping is locked at the unit level since timing a
// live daemon's drain window from a shell is inherently racy.
TEST(CliExitCodes, ShutdownAndBusyAreDistinctCodes) {
  using rmp::net::NetErrc;
  using rmp::net::NetError;
  using rmp::net::RemoteError;
  using rmp::net::Status;
  EXPECT_EQ(rmp::tools::kExitShuttingDown, 9);
  EXPECT_EQ(rmp::tools::exit_code_for_status(Status::kShuttingDown), 9);
  EXPECT_EQ(rmp::tools::exit_code_for_status(Status::kBusy), 7);
  EXPECT_EQ(rmp::tools::exit_code_for(
                RemoteError(Status::kShuttingDown, "draining")),
            9);
  EXPECT_EQ(rmp::tools::exit_code_for(
                NetError(NetErrc::kShuttingDown, "draining")),
            9);
  EXPECT_EQ(
      rmp::tools::exit_code_for(NetError(NetErrc::kBusy, "unavailable")), 7);
  EXPECT_EQ(rmp::tools::exit_code_for(
                RemoteError(Status::kDeadlineExceeded, "late")),
            6);
  EXPECT_EQ(rmp::tools::exit_code_for(rmp::compress::CodecError(
                rmp::compress::CodecErrc::kTruncated, "cut short")),
            4);
}

#ifdef RMPD_BINARY
pid_t spawn_rmpd(const std::vector<std::string>& extra_args) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Child: silence output and become the daemon.
  std::freopen("/dev/null", "w", stdout);
  std::freopen("/dev/null", "w", stderr);
  std::vector<char*> argv;
  static std::string binary = RMPD_BINARY;
  argv.push_back(binary.data());
  std::vector<std::string> owned = extra_args;
  for (auto& arg : owned) argv.push_back(arg.data());
  argv.push_back(nullptr);
  execv(RMPD_BINARY, argv.data());
  _exit(127);
}

std::string wait_for_port(const fs::path& port_file) {
  for (int i = 0; i < 400; ++i) {
    std::ifstream in(port_file);
    std::string port;
    if (in >> port && !port.empty()) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return "";
}

TEST_F(CliTest, DaemonServesClientsAndDrainsCleanlyOnSigterm) {
  const fs::path port_file = dir_ / "port";
  const fs::path served = dir_ / "served";
  const pid_t pid = spawn_rmpd({"--port", "0", "--port-file",
                                port_file.string(), "--output-dir",
                                served.string()});
  ASSERT_GT(pid, 0);
  const std::string port = wait_for_port(port_file);
  ASSERT_FALSE(port.empty()) << "daemon never published its port";
  const std::string net = " --port " + port;

  EXPECT_EQ(run_rmpc("client ping" + net), 0);

  // Inline encode/decode round trip through the daemon.
  const fs::path archive = dir_ / "remote.rmp";
  const fs::path output = dir_ / "remote.f64";
  ASSERT_EQ(run_rmpc("client encode " + quoted(input_) + " " +
                     quoted(archive) + " --dims 16,16,16 --method pca" + net),
            0);
  ASSERT_TRUE(fs::exists(archive));
  ASSERT_EQ(run_rmpc("client decode " + quoted(archive) + " " +
                     quoted(output) + net),
            0);
  const auto decoded = read_back(output);
  ASSERT_EQ(decoded.size(), data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i) {
    ASSERT_NEAR(decoded[i], data_[i], 0.05) << i;
  }
  EXPECT_EQ(run_rmpc("client verify " + quoted(archive) + net), 0);

  // Server-side durable store and a journaled sequence step.
  EXPECT_EQ(run_rmpc("client encode " + quoted(input_) +
                     " --dims 16,16,16 --store stored.rmp" + net),
            0);
  EXPECT_TRUE(fs::exists(served / "stored.rmp"));
  EXPECT_EQ(run_rmpc("client encode " + quoted(input_) +
                     " --dims 16,16,16 --sequence soak.rmps" + net),
            0);
  EXPECT_EQ(run_rmpc("client stats" + net), 0);

  // SIGTERM drains: journaled sequences publish durably, exit status 0.
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "daemon died of a signal";
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_TRUE(fs::exists(served / "soak.rmps"));
  EXPECT_FALSE(fs::exists(served / "soak.rmps.part"));
  EXPECT_EQ(run_rmpc("verify " + quoted(served / "stored.rmp")), 0);

  // With the daemon gone, clients get the "unavailable" exit code.
  const int refused = run_rmpc("client ping" + net);
  ASSERT_TRUE(WIFEXITED(refused));
  EXPECT_EQ(WEXITSTATUS(refused), 7);
}

TEST_F(CliTest, DaemonScrubAndRecoveryStatsAreReachableFromTheCli) {
  const fs::path port_file = dir_ / "port";
  const fs::path served = dir_ / "served";
  fs::create_directories(served);
  // Garbage planted before boot: startup recovery quarantines it.
  {
    std::ofstream out(served / "preboot_junk.rmp", std::ios::binary);
    const std::vector<char> garbage(96, '\x33');
    out.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  }
  const pid_t pid = spawn_rmpd({"--port", "0", "--port-file",
                                port_file.string(), "--output-dir",
                                served.string()});
  ASSERT_GT(pid, 0);
  const std::string port = wait_for_port(port_file);
  ASSERT_FALSE(port.empty());
  const std::string net = " --port " + port;

  EXPECT_FALSE(fs::exists(served / "preboot_junk.rmp"));
  EXPECT_TRUE(fs::exists(served / "quarantine" / "preboot_junk.rmp"));
  EXPECT_TRUE(fs::exists(served / "quarantine" / "manifest.json"));

  // A clean store scrubs clean (exit 0); planting more garbage makes the
  // on-demand scrub quarantine it and report via exit code 4.
  EXPECT_EQ(run_rmpc("client scrub" + net), 0);
  {
    std::ofstream out(served / "postboot_junk.rmp", std::ios::binary);
    const std::vector<char> garbage(96, '\x44');
    out.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  }
  const int scrub_status = run_rmpc("client scrub" + net);
  ASSERT_TRUE(WIFEXITED(scrub_status));
  EXPECT_EQ(WEXITSTATUS(scrub_status), 4);
  EXPECT_TRUE(fs::exists(served / "quarantine" / "postboot_junk.rmp"));

  // Retry flags parse and the tokened encode path works end to end.
  EXPECT_EQ(run_rmpc("client encode " + quoted(input_) +
                     " --dims 16,16,16 --sequence steps.rmps --retries 3 "
                     "--token 77" +
                     net),
            0);
  EXPECT_EQ(run_rmpc("client stats" + net), 0);

  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_TRUE(fs::exists(served / "steps.rmps"));
}

TEST_F(CliTest, DaemonDeadlineExpiryYieldsExitCode6) {
  const fs::path port_file = dir_ / "port";
  // Every job stalls 400 ms in the worker; a 50 ms deadline must lose.
  const pid_t pid = spawn_rmpd({"--port", "0", "--port-file",
                                port_file.string(), "--debug-stall-ms",
                                "400"});
  ASSERT_GT(pid, 0);
  const std::string port = wait_for_port(port_file);
  ASSERT_FALSE(port.empty());
  const int status =
      run_rmpc("client encode " + quoted(input_) + " " +
               quoted(dir_ / "late.rmp") +
               " --dims 16,16,16 --deadline-ms 50 --port " + port);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 6);
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int wait_status = 0;
  ASSERT_EQ(waitpid(pid, &wait_status, 0), pid);
  EXPECT_EQ(WEXITSTATUS(wait_status), 0);
}
#endif

TEST_F(CliTest, ZfpCodecPathWorks) {
  const fs::path archive = dir_ / "zfp.rmp";
  const fs::path output = dir_ / "zfp_out.f64";
  ASSERT_EQ(run_rmpc("compress " + quoted(input_) + " " + quoted(archive) +
                     " --dims 16,16,16 --method svd --codec zfp"),
            0);
  ASSERT_EQ(run_rmpc("decompress " + quoted(archive) + " " + quoted(output) +
                     " --codec zfp"),
            0);
  const auto decoded = read_back(output);
  ASSERT_EQ(decoded.size(), data_.size());
}

}  // namespace
