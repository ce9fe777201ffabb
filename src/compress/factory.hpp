// Convenience constructors mirroring the paper's evaluation configs
// (§IV-B / §V-B): SZ with pointwise-relative 1e-5 for originals and 1e-3
// for deltas; ZFP fixed precision 16 for originals and 8 for deltas;
// FPC "level 20".
#pragma once

#include <memory>

#include "compress/compressor.hpp"
#include "compress/fpc.hpp"
#include "compress/sz.hpp"
#include "compress/zfp_like.hpp"

namespace rmp::compress {

std::unique_ptr<Compressor> make_sz_original();   ///< pw-rel 1e-5
std::unique_ptr<Compressor> make_sz_delta();      ///< pw-rel 1e-3
std::unique_ptr<Compressor> make_zfp_original();  ///< fixed precision 16
std::unique_ptr<Compressor> make_zfp_delta();     ///< fixed precision 8
std::unique_ptr<Compressor> make_fpc();           ///< lossless, level 20

}  // namespace rmp::compress
