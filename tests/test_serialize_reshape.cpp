// Unit tests for the byte-level serialization helpers and the canonical
// field<->matrix reshaping that all dimension-reduction preconditioners
// rely on, plus the Huffman decoder's malformed-stream handling.
#include <gtest/gtest.h>

#include <random>

#include "compress/huffman.hpp"
#include "core/reshape.hpp"
#include "core/serialize.hpp"
#include "io/container_error.hpp"

namespace rmp::core {
namespace {

TEST(Serialize, DoublesRoundTrip) {
  const std::vector<double> values = {0.0, -1.5, 3.25e300, -7e-200};
  EXPECT_EQ(bytes_to_doubles(doubles_to_bytes(values)), values);
}

TEST(Serialize, DoublesRejectRaggedBytes) {
  std::vector<std::uint8_t> bytes(13);
  EXPECT_THROW(bytes_to_doubles(bytes), io::ContainerError);
}

TEST(Serialize, MatrixRoundTrip) {
  la::Matrix m(3, 5);
  std::mt19937 rng(9);
  std::normal_distribution<double> dist(0.0, 2.0);
  for (double& v : m.flat()) v = dist(rng);
  const la::Matrix back = bytes_to_matrix(matrix_to_bytes(m));
  EXPECT_EQ(back.rows(), 3u);
  EXPECT_EQ(back.cols(), 5u);
  EXPECT_LT(la::Matrix::max_abs_diff(back, m), 1e-300);
}

TEST(Serialize, MatrixRejectsCorruptHeader) {
  auto bytes = matrix_to_bytes(la::Matrix(2, 2, 1.0));
  bytes.resize(bytes.size() - 8);  // drop one element
  EXPECT_THROW(bytes_to_matrix(bytes), io::ContainerError);
  EXPECT_THROW(bytes_to_matrix(std::vector<std::uint8_t>(7)),
               io::ContainerError);
}

TEST(Serialize, EmptyMatrix) {
  const la::Matrix back = bytes_to_matrix(matrix_to_bytes(la::Matrix()));
  EXPECT_EQ(back.rows(), 0u);
  EXPECT_EQ(back.size(), 0u);
}

TEST(Serialize, U64RoundTrip) {
  const std::vector<std::uint64_t> values = {0, 1, 0xFFFFFFFFFFFFFFFFULL};
  EXPECT_EQ(bytes_to_u64s(u64s_to_bytes(values)), values);
  EXPECT_THROW(bytes_to_u64s(std::vector<std::uint8_t>(9)),
               io::ContainerError);
}

TEST(Sparse, SerializeRoundTrip) {
  std::mt19937 rng(14);
  std::normal_distribution<double> dist(0.0, 1.0);
  la::Matrix a(9, 11);
  for (double& v : a.flat()) v = dist(rng);
  const la::CsrMatrix csr = la::CsrMatrix::from_dense(a, 0.8);
  const la::CsrMatrix back = bytes_to_csr(csr_to_bytes(csr), 9 * 11);
  EXPECT_EQ(back.rows(), csr.rows());
  EXPECT_EQ(back.cols(), csr.cols());
  EXPECT_EQ(back.nnz(), csr.nnz());
  EXPECT_LT(la::Matrix::max_abs_diff(back.to_dense(), csr.to_dense()), 1e-300);
}

TEST(Sparse, DeserializeRejectsTruncated) {
  la::Matrix a(3, 3);
  a(0, 1) = 2.0;
  a(2, 2) = -1.0;
  const auto bytes = csr_to_bytes(la::CsrMatrix::from_dense(a));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(bytes_to_csr(std::span(bytes).first(cut), 9),
                 io::ContainerError)
        << "cut at " << cut;
  }
  EXPECT_THROW(bytes_to_csr(bytes, 8), io::ContainerError);
}

TEST(Reshape, PrimeLength1dFallsBackToColumnVector) {
  const auto [m, n] = near_square_factors(17);
  EXPECT_EQ(m, 17u);
  EXPECT_EQ(n, 1u);
}

TEST(Reshape, ZeroCount) {
  const auto [m, n] = near_square_factors(0);
  EXPECT_EQ(m, 0u);
  EXPECT_EQ(n, 0u);
}

TEST(Reshape, MatrixToFieldRejectsWrongShape) {
  la::Matrix m(4, 4);
  EXPECT_THROW(matrix_to_field(m, 3, 3, 3), std::invalid_argument);
}

TEST(Reshape, PreservesLayoutFor3d) {
  sim::Field f(2, 3, 4);
  for (std::size_t n = 0; n < f.size(); ++n) {
    f.flat()[n] = static_cast<double>(n);
  }
  const la::Matrix m = as_matrix(f);
  EXPECT_EQ(m.rows(), 6u);
  EXPECT_EQ(m.cols(), 4u);
  // Row-major layout: entry (r, c) is flat index r*4 + c.
  EXPECT_DOUBLE_EQ(m(2, 3), 11.0);
  EXPECT_DOUBLE_EQ(m(5, 0), 20.0);
}

TEST(HuffmanErrors, TruncatedTableThrows) {
  const std::vector<std::uint32_t> symbols = {1, 2, 3, 1, 2, 1};
  auto bytes = compress::huffman_encode(symbols);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(compress::huffman_decode(bytes), std::exception);
}

TEST(HuffmanErrors, EmptyBytesThrow) {
  EXPECT_THROW(compress::huffman_decode({}), std::exception);
}

TEST(HuffmanErrors, CountLargerThanStreamThrows) {
  // Claim 1000 symbols but provide the stream for 3.
  const std::vector<std::uint32_t> symbols = {5, 6, 5};
  auto bytes = compress::huffman_encode(symbols);
  // The count lives in the first 8 bytes (little-endian u64).
  bytes[0] = 0xE8;
  bytes[1] = 0x03;  // 1000
  EXPECT_THROW(compress::huffman_decode(bytes), std::exception);
}

}  // namespace
}  // namespace rmp::core
