#include "compress/factory.hpp"

namespace rmp::compress {

std::unique_ptr<Compressor> make_sz_original() {
  return std::make_unique<SzCompressor>(
      SzOptions{SzMode::kBlockRelative, 1e-5, 16});
}

std::unique_ptr<Compressor> make_sz_delta() {
  return std::make_unique<SzCompressor>(
      SzOptions{SzMode::kBlockRelative, 1e-3, 16});
}

std::unique_ptr<Compressor> make_zfp_original() {
  return std::make_unique<ZfpCompressor>(
      ZfpOptions{ZfpMode::kFixedPrecision, 16, 0.0});
}

std::unique_ptr<Compressor> make_zfp_delta() {
  return std::make_unique<ZfpCompressor>(
      ZfpOptions{ZfpMode::kFixedPrecision, 8, 0.0});
}

std::unique_ptr<Compressor> make_fpc() {
  return std::make_unique<FpcCompressor>(FpcOptions{20});
}

}  // namespace rmp::compress
