// Golden pins for the SZ codec's predictor -> quantizer walk: stream size,
// stream CRC32 and decoded-value CRC32 for every bound mode, Lorenzo and
// hybrid, on shapes that reach every edge of a row walk -- nx in
// {1, 2, 3, 33}, ny in {1, 2}, nz in {1, 1500} (a 1024-value bound block
// ends inside a 1500-value row) -- plus one wide 3D field, on a smooth
// field and on one full of NaN, +-Inf, signed zeros and subnormals.  A
// faster quantizer must reproduce every bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "compress/sz.hpp"
#include "io/checksum.hpp"

namespace rmp::compress {
namespace {

// Smooth trend plus a sawtooth and a little noise, zeros sprinkled in,
// crossing zero in places.  Only +, *, % and the generator: no libm.
std::vector<double> smooth_field(const Dims& d) {
  std::vector<double> f(d.count());
  std::mt19937_64 rng(17);
  std::size_t n = 0;
  for (std::size_t i = 0; i < d.nx; ++i) {
    for (std::size_t j = 0; j < d.ny; ++j) {
      for (std::size_t k = 0; k < d.nz; ++k, ++n) {
        const double x = static_cast<double>(i), y = static_cast<double>(j),
                     z = static_cast<double>(k);
        const double saw =
            static_cast<double>((k * 37 + j * 11 + i * 5) % 97) / 97.0;
        const double noise =
            static_cast<double>(rng() >> 11) / 9007199254740992.0 - 0.5;
        f[n] = n % 211 == 0 ? 0.0
                            : 0.4 + 0.013 * x - 0.002 * y * y - 7e-4 * z +
                                  0.3 * saw + 1e-5 * noise;
      }
    }
  }
  return f;
}

// The smooth field with every 7th value replaced by one of NaN, +-Inf,
// -0.0, a subnormal, 1e300 or 0: outliers that poison the predictor for
// the values after them.
std::vector<double> special_field(const Dims& d) {
  std::vector<double> f = smooth_field(d);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -0.0,
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min() * 5.0,
                             1e300,
                             0.0};
  for (std::size_t n = 3; n < f.size(); n += 7) {
    f[n] = specials[(n / 7) % std::size(specials)];
  }
  return f;
}

struct NamedConfig {
  const char* name;
  SzOptions options;
};

const NamedConfig kConfigs[] = {
    {"abs", {SzMode::kAbsolute, 1e-4, 16, SzPredictor::kLorenzo}},
    {"rel", {SzMode::kBlockRelative, 1e-5, 16, SzPredictor::kLorenzo}},
    {"pwrel", {SzMode::kPointwiseRelative, 1e-5, 16, SzPredictor::kLorenzo}},
    {"abs-hyb", {SzMode::kAbsolute, 1e-4, 16, SzPredictor::kHybrid}},
    {"rel-hyb", {SzMode::kBlockRelative, 1e-5, 16, SzPredictor::kHybrid}},
    {"pwrel-hyb",
     {SzMode::kPointwiseRelative, 1e-5, 16, SzPredictor::kHybrid}},
    // 16 bins: most residuals miss and become outliers.
    {"abs-q4", {SzMode::kAbsolute, 1e-6, 4, SzPredictor::kLorenzo}},
};

std::vector<Dims> pinned_shapes() {
  std::vector<Dims> shapes;
  for (const std::size_t nx : {1u, 2u, 3u, 33u}) {
    for (const std::size_t ny : {1u, 2u}) {
      for (const std::size_t nz : {1u, 1500u}) shapes.push_back({nx, ny, nz});
    }
  }
  shapes.push_back({41, 37, 50});
  return shapes;
}

std::uint32_t crc_of(const std::vector<double>& values) {
  return io::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(values.data()),
      values.size() * sizeof(double)));
}

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08Xu", v);
  return buf;
}

struct SzPin {
  const char* field;
  const char* config;
  std::size_t nx, ny, nz;
  std::size_t size;       // compress() output bytes
  std::uint32_t crc;      // CRC32 of compress() output
  std::uint32_t decoded;  // CRC32 of the decoded doubles
};

// Captured from the row-at-a-time quantizer (std::round, one chain).
const SzPin kSzPins[] = {
    {"smooth", "abs", 1, 1, 1, 82u, 0xD5BDA290u, 0x6522DF69u},
    {"smooth", "rel", 1, 1, 1, 98u, 0x8C780758u, 0x6522DF69u},
    {"smooth", "pwrel", 1, 1, 1, 108u, 0xE5A57474u, 0x6522DF69u},
    {"smooth", "abs-hyb", 1, 1, 1, 115u, 0x681F97CBu, 0x6522DF69u},
    {"smooth", "rel-hyb", 1, 1, 1, 131u, 0x9303F0E2u, 0x6522DF69u},
    {"smooth", "pwrel-hyb", 1, 1, 1, 141u, 0x2C8E19C1u, 0x6522DF69u},
    {"smooth", "abs-q4", 1, 1, 1, 82u, 0x81938F51u, 0x6522DF69u},
    {"special", "abs", 1, 1, 1, 82u, 0xD5BDA290u, 0x6522DF69u},
    {"special", "rel", 1, 1, 1, 98u, 0x8C780758u, 0x6522DF69u},
    {"special", "pwrel", 1, 1, 1, 108u, 0xE5A57474u, 0x6522DF69u},
    {"special", "abs-hyb", 1, 1, 1, 115u, 0x681F97CBu, 0x6522DF69u},
    {"special", "rel-hyb", 1, 1, 1, 131u, 0x9303F0E2u, 0x6522DF69u},
    {"special", "pwrel-hyb", 1, 1, 1, 141u, 0x2C8E19C1u, 0x6522DF69u},
    {"special", "abs-q4", 1, 1, 1, 82u, 0x81938F51u, 0x6522DF69u},
    {"smooth", "abs", 1, 1, 1500, 569u, 0x4C3A80FDu, 0xD077EEBDu},
    {"smooth", "rel", 1, 1, 1500, 824u, 0x3784F32Au, 0x50B65FBEu},
    {"smooth", "pwrel", 1, 1, 1500, 10584u, 0x67F09433u, 0x6E6F0E2Cu},
    {"smooth", "abs-hyb", 1, 1, 1500, 633u, 0x0C9DDB55u, 0xD077EEBDu},
    {"smooth", "rel-hyb", 1, 1, 1500, 888u, 0x88CBDAACu, 0x50B65FBEu},
    {"smooth", "pwrel-hyb", 1, 1, 1500, 10597u, 0x013EAF88u, 0x6E6F0E2Cu},
    {"smooth", "abs-q4", 1, 1, 1500, 12266u, 0xCAC70BF8u, 0xAB95A5EFu},
    {"special", "abs", 1, 1, 1500, 3647u, 0x986F97B2u, 0xF0F217A3u},
    {"special", "rel", 1, 1, 1500, 2266u, 0xA0256E09u, 0x5FA61436u},
    {"special", "pwrel", 1, 1, 1500, 9923u, 0xE9EE5A29u, 0xAF6495A9u},
    {"special", "abs-hyb", 1, 1, 1500, 4027u, 0x8ECA5A59u, 0x56AE946Du},
    {"special", "rel-hyb", 1, 1, 1500, 2410u, 0xDF5B1E7Eu, 0x6EB7385Au},
    {"special", "pwrel-hyb", 1, 1, 1500, 9935u, 0x05C70041u, 0xAF6495A9u},
    {"special", "abs-q4", 1, 1, 1500, 11642u, 0x1B48575Cu, 0x2219A418u},
    {"smooth", "abs", 1, 2, 1, 87u, 0x1DF29EE5u, 0xD13C1EBAu},
    {"smooth", "rel", 1, 2, 1, 111u, 0x1E8CE2C0u, 0x94DE1446u},
    {"smooth", "pwrel", 1, 2, 1, 121u, 0xA45A7BBDu, 0x94DE1446u},
    {"smooth", "abs-hyb", 1, 2, 1, 120u, 0x0EAD5BC1u, 0xD13C1EBAu},
    {"smooth", "rel-hyb", 1, 2, 1, 144u, 0x0286DE19u, 0x94DE1446u},
    {"smooth", "pwrel-hyb", 1, 2, 1, 154u, 0x4FC570E0u, 0x94DE1446u},
    {"smooth", "abs-q4", 1, 2, 1, 95u, 0x63D81F35u, 0x94DE1446u},
    {"special", "abs", 1, 2, 1, 87u, 0x1DF29EE5u, 0xD13C1EBAu},
    {"special", "rel", 1, 2, 1, 111u, 0x1E8CE2C0u, 0x94DE1446u},
    {"special", "pwrel", 1, 2, 1, 121u, 0xA45A7BBDu, 0x94DE1446u},
    {"special", "abs-hyb", 1, 2, 1, 120u, 0x0EAD5BC1u, 0xD13C1EBAu},
    {"special", "rel-hyb", 1, 2, 1, 144u, 0x0286DE19u, 0x94DE1446u},
    {"special", "pwrel-hyb", 1, 2, 1, 154u, 0x4FC570E0u, 0x94DE1446u},
    {"special", "abs-q4", 1, 2, 1, 95u, 0x63D81F35u, 0x94DE1446u},
    {"smooth", "abs", 1, 2, 1500, 1498u, 0x7F39E70Cu, 0x0F5B8FCBu},
    {"smooth", "rel", 1, 2, 1500, 2036u, 0x52E4A21Du, 0x7E8BAD32u},
    {"smooth", "pwrel", 1, 2, 1500, 19665u, 0xF293A6F1u, 0xCEBF7524u},
    {"smooth", "abs-hyb", 1, 2, 1500, 1562u, 0x8DF4F398u, 0x0F5B8FCBu},
    {"smooth", "rel-hyb", 1, 2, 1500, 2100u, 0x74BB96D0u, 0x7E8BAD32u},
    {"smooth", "pwrel-hyb", 1, 2, 1500, 19682u, 0x90BF65B2u, 0xCEBF7524u},
    {"smooth", "abs-q4", 1, 2, 1500, 15960u, 0x9BDBE548u, 0x0AE5BBC8u},
    {"special", "abs", 1, 2, 1500, 9301u, 0xE134741Eu, 0xEC7F2D8Eu},
    {"special", "rel", 1, 2, 1500, 5643u, 0x3A89AD6Du, 0x810C1A14u},
    {"special", "pwrel", 1, 2, 1500, 19337u, 0x580D0A23u, 0x924512F5u},
    {"special", "abs-hyb", 1, 2, 1500, 9935u, 0xADF3EA56u, 0x8D945E4Eu},
    {"special", "rel-hyb", 1, 2, 1500, 5810u, 0x7E928CD5u, 0x0E9DF873u},
    {"special", "pwrel-hyb", 1, 2, 1500, 19351u, 0x0006A2B7u, 0x924512F5u},
    {"special", "abs-q4", 1, 2, 1500, 18817u, 0x5A2B312Fu, 0x9B7FD858u},
    {"smooth", "abs", 2, 1, 1, 87u, 0x7AFB12AFu, 0xF8AC7B57u},
    {"smooth", "rel", 2, 1, 1, 111u, 0x4BA8CCE4u, 0x8B5D247Du},
    {"smooth", "pwrel", 2, 1, 1, 121u, 0xBF34E1CFu, 0x8B5D247Du},
    {"smooth", "abs-hyb", 2, 1, 1, 120u, 0x32F328C9u, 0xF8AC7B57u},
    {"smooth", "rel-hyb", 2, 1, 1, 144u, 0x19B97968u, 0x8B5D247Du},
    {"smooth", "pwrel-hyb", 2, 1, 1, 154u, 0xD1EF2251u, 0x8B5D247Du},
    {"smooth", "abs-q4", 2, 1, 1, 95u, 0x96AC4162u, 0x8B5D247Du},
    {"special", "abs", 2, 1, 1, 87u, 0x7AFB12AFu, 0xF8AC7B57u},
    {"special", "rel", 2, 1, 1, 111u, 0x4BA8CCE4u, 0x8B5D247Du},
    {"special", "pwrel", 2, 1, 1, 121u, 0xBF34E1CFu, 0x8B5D247Du},
    {"special", "abs-hyb", 2, 1, 1, 120u, 0x32F328C9u, 0xF8AC7B57u},
    {"special", "rel-hyb", 2, 1, 1, 144u, 0x19B97968u, 0x8B5D247Du},
    {"special", "pwrel-hyb", 2, 1, 1, 154u, 0xD1EF2251u, 0x8B5D247Du},
    {"special", "abs-q4", 2, 1, 1, 95u, 0x96AC4162u, 0x8B5D247Du},
    {"smooth", "abs", 2, 1, 1500, 1545u, 0x47B58DBFu, 0x1D955427u},
    {"smooth", "rel", 2, 1, 1500, 1915u, 0x920B7F39u, 0xC034DE7Bu},
    {"smooth", "pwrel", 2, 1, 1500, 19242u, 0x4F015E96u, 0xB6B958D3u},
    {"smooth", "abs-hyb", 2, 1, 1500, 1609u, 0x968D1E8Eu, 0x1D955427u},
    {"smooth", "rel-hyb", 2, 1, 1500, 1979u, 0xE46BB77Cu, 0xC034DE7Bu},
    {"smooth", "pwrel-hyb", 2, 1, 1500, 19257u, 0xAB002141u, 0xB6B958D3u},
    {"smooth", "abs-q4", 2, 1, 1500, 14602u, 0x86CC96C9u, 0xAA6851F3u},
    {"special", "abs", 2, 1, 1500, 9373u, 0x29D577ECu, 0xAD91E7C2u},
    {"special", "rel", 2, 1, 1500, 5640u, 0xE8493DCAu, 0x2581FA7Eu},
    {"special", "pwrel", 2, 1, 1500, 19181u, 0xC0F60DCEu, 0x3885BF28u},
    {"special", "abs-hyb", 2, 1, 1500, 9917u, 0x6DD6D24Fu, 0x08372C61u},
    {"special", "rel-hyb", 2, 1, 1500, 5812u, 0x6810BD47u, 0x9CB2B515u},
    {"special", "pwrel-hyb", 2, 1, 1500, 19195u, 0x4A2E362Du, 0x3885BF28u},
    {"special", "abs-q4", 2, 1, 1500, 18203u, 0x27358207u, 0x3CA59895u},
    {"smooth", "abs", 2, 2, 1, 97u, 0x6B07F90Au, 0x844718EEu},
    {"smooth", "rel", 2, 2, 1, 127u, 0x7E567FC9u, 0xA232A13Du},
    {"smooth", "pwrel", 2, 2, 1, 137u, 0xD2981C41u, 0xA232A13Du},
    {"smooth", "abs-hyb", 2, 2, 1, 130u, 0x272A5818u, 0x844718EEu},
    {"smooth", "rel-hyb", 2, 2, 1, 160u, 0x94728C9Fu, 0xA232A13Du},
    {"smooth", "pwrel-hyb", 2, 2, 1, 170u, 0x89C19861u, 0xA232A13Du},
    {"smooth", "abs-q4", 2, 2, 1, 111u, 0x7364D5FBu, 0xA232A13Du},
    {"special", "abs", 2, 2, 1, 105u, 0xA086948Fu, 0x94836678u},
    {"special", "rel", 2, 2, 1, 127u, 0x4395B629u, 0xCD5AE4E5u},
    {"special", "pwrel", 2, 2, 1, 153u, 0x8378570Fu, 0xCD5AE4E5u},
    {"special", "abs-hyb", 2, 2, 1, 138u, 0xE72C7C8Eu, 0x94836678u},
    {"special", "rel-hyb", 2, 2, 1, 160u, 0xBE77352Du, 0xCD5AE4E5u},
    {"special", "pwrel-hyb", 2, 2, 1, 186u, 0xBE3E9823u, 0xCD5AE4E5u},
    {"special", "abs-q4", 2, 2, 1, 111u, 0x1C0C9023u, 0xCD5AE4E5u},
    {"smooth", "abs", 2, 2, 1500, 2804u, 0xAD0D8AC6u, 0x0FE2B75Au},
    {"smooth", "rel", 2, 2, 1500, 4227u, 0x84077238u, 0xB4A0183Fu},
    {"smooth", "pwrel", 2, 2, 1500, 36468u, 0x3063F105u, 0xCC8ED844u},
    {"smooth", "abs-hyb", 2, 2, 1500, 2816u, 0x6003508Du, 0x0FE2B75Au},
    {"smooth", "rel-hyb", 2, 2, 1500, 4291u, 0x6CE630ECu, 0xB4A0183Fu},
    {"smooth", "pwrel-hyb", 2, 2, 1500, 36486u, 0x63B3A26Fu, 0xCC8ED844u},
    {"smooth", "abs-q4", 2, 2, 1500, 22429u, 0x83730C9Du, 0xBE93D6DBu},
    {"special", "abs", 2, 2, 1500, 22487u, 0xAB825A0Fu, 0x974D1CB2u},
    {"special", "rel", 2, 2, 1500, 14960u, 0xFAB5B6F6u, 0x0DD48F9Fu},
    {"special", "pwrel", 2, 2, 1500, 38823u, 0x4564368Bu, 0x15B1AF25u},
    {"special", "abs-hyb", 2, 2, 1500, 23074u, 0xD94FE0B1u, 0x85F2A02Cu},
    {"special", "rel-hyb", 2, 2, 1500, 15798u, 0x02406CC5u, 0xCA3B2AE8u},
    {"special", "pwrel-hyb", 2, 2, 1500, 38836u, 0x025BF5EFu, 0x15B1AF25u},
    {"special", "abs-q4", 2, 2, 1500, 35627u, 0xE62B4F31u, 0x99F3FB86u},
    {"smooth", "abs", 3, 1, 1, 92u, 0xB7D8BF6Eu, 0x1E48126Fu},
    {"smooth", "rel", 3, 1, 1, 119u, 0x7335FD09u, 0xACB29C78u},
    {"smooth", "pwrel", 3, 1, 1, 129u, 0xE2C9D7BBu, 0xACB29C78u},
    {"smooth", "abs-hyb", 3, 1, 1, 125u, 0x24375542u, 0x1E48126Fu},
    {"smooth", "rel-hyb", 3, 1, 1, 152u, 0xFD8C2760u, 0xACB29C78u},
    {"smooth", "pwrel-hyb", 3, 1, 1, 162u, 0x64BBE65Du, 0xACB29C78u},
    {"smooth", "abs-q4", 3, 1, 1, 103u, 0xFB7D4003u, 0xACB29C78u},
    {"special", "abs", 3, 1, 1, 92u, 0xB7D8BF6Eu, 0x1E48126Fu},
    {"special", "rel", 3, 1, 1, 119u, 0x7335FD09u, 0xACB29C78u},
    {"special", "pwrel", 3, 1, 1, 129u, 0xE2C9D7BBu, 0xACB29C78u},
    {"special", "abs-hyb", 3, 1, 1, 125u, 0x24375542u, 0x1E48126Fu},
    {"special", "rel-hyb", 3, 1, 1, 152u, 0xFD8C2760u, 0xACB29C78u},
    {"special", "pwrel-hyb", 3, 1, 1, 162u, 0x64BBE65Du, 0xACB29C78u},
    {"special", "abs-q4", 3, 1, 1, 103u, 0xFB7D4003u, 0xACB29C78u},
    {"smooth", "abs", 3, 1, 1500, 1987u, 0x9CCDEC59u, 0x9EFD09F1u},
    {"smooth", "rel", 3, 1, 1500, 2792u, 0x804068FCu, 0xC2A0B17Au},
    {"smooth", "pwrel", 3, 1, 1500, 27120u, 0x74147BABu, 0x1F823EC5u},
    {"smooth", "abs-hyb", 3, 1, 1500, 1999u, 0xB24F93A7u, 0x9EFD09F1u},
    {"smooth", "rel-hyb", 3, 1, 1500, 2856u, 0x7CD4A793u, 0xC2A0B17Au},
    {"smooth", "pwrel-hyb", 3, 1, 1500, 27136u, 0x82F1D511u, 0x1F823EC5u},
    {"smooth", "abs-q4", 3, 1, 1500, 16846u, 0xD3F1BCF5u, 0xEA7E61A0u},
    {"special", "abs", 3, 1, 1500, 14311u, 0xA1C85875u, 0x0F353DDDu},
    {"special", "rel", 3, 1, 1500, 8699u, 0x06E6B09Du, 0x3F917A0Du},
    {"special", "pwrel", 3, 1, 1500, 28440u, 0x631A4ECCu, 0x9E64F4DEu},
    {"special", "abs-hyb", 3, 1, 1500, 14801u, 0x16B647EFu, 0x16D04555u},
    {"special", "rel-hyb", 3, 1, 1500, 8817u, 0x1281E599u, 0x994E08B4u},
    {"special", "pwrel-hyb", 3, 1, 1500, 28454u, 0xD80D6990u, 0x9E64F4DEu},
    {"special", "abs-q4", 3, 1, 1500, 24646u, 0x87E869D6u, 0x2A85E7EAu},
    {"smooth", "abs", 3, 2, 1, 103u, 0xF937C095u, 0xEDE8CC01u},
    {"smooth", "rel", 3, 2, 1, 138u, 0x809B1A92u, 0x374FA29Au},
    {"smooth", "pwrel", 3, 2, 1, 148u, 0x492BBAC9u, 0xBC9C17C3u},
    {"smooth", "abs-hyb", 3, 2, 1, 136u, 0xA48E072Bu, 0xEDE8CC01u},
    {"smooth", "rel-hyb", 3, 2, 1, 171u, 0xB970FAB0u, 0x374FA29Au},
    {"smooth", "pwrel-hyb", 3, 2, 1, 181u, 0xA4EC08B1u, 0xBC9C17C3u},
    {"smooth", "abs-q4", 3, 2, 1, 125u, 0x6B097120u, 0x2E5D49D7u},
    {"special", "abs", 3, 2, 1, 119u, 0x411AB4D0u, 0xA8B6618Du},
    {"special", "rel", 3, 2, 1, 141u, 0x65D1AA7Cu, 0xB6D4BB65u},
    {"special", "pwrel", 3, 2, 1, 164u, 0xD334CDE8u, 0x2719B15Eu},
    {"special", "abs-hyb", 3, 2, 1, 152u, 0xA00FFC92u, 0xA8B6618Du},
    {"special", "rel-hyb", 3, 2, 1, 174u, 0x94C4A46Au, 0xB6D4BB65u},
    {"special", "pwrel-hyb", 3, 2, 1, 197u, 0xDAC120E3u, 0x2719B15Eu},
    {"special", "abs-q4", 3, 2, 1, 128u, 0xBD2A2B8Cu, 0x5CD93E88u},
    {"smooth", "abs", 3, 2, 1500, 3668u, 0xC2B2B419u, 0x63C2B853u},
    {"smooth", "rel", 3, 2, 1500, 6322u, 0x29A65EACu, 0xAA880D3Du},
    {"smooth", "pwrel", 3, 2, 1500, 51998u, 0x99CA58C4u, 0x0CCB6B36u},
    {"smooth", "abs-hyb", 3, 2, 1500, 3680u, 0x85CACA02u, 0x63C2B853u},
    {"smooth", "rel-hyb", 3, 2, 1500, 6386u, 0xFB49BE11u, 0xAA880D3Du},
    {"smooth", "pwrel-hyb", 3, 2, 1500, 52015u, 0x83F63967u, 0x0CCB6B36u},
    {"smooth", "abs-q4", 3, 2, 1500, 28345u, 0xB34F81B9u, 0x9DAD758Bu},
    {"special", "abs", 3, 2, 1500, 34800u, 0x18197D67u, 0x3E4BAF90u},
    {"special", "rel", 3, 2, 1500, 24138u, 0x5C713D42u, 0x64EB0C5Fu},
    {"special", "pwrel", 3, 2, 1500, 57630u, 0x6BA36206u, 0xD985C1E1u},
    {"special", "abs-hyb", 3, 2, 1500, 34818u, 0xC5445B1Bu, 0x3E4BAF90u},
    {"special", "rel-hyb", 3, 2, 1500, 24152u, 0x96CC4F4Eu, 0x64EB0C5Fu},
    {"special", "pwrel-hyb", 3, 2, 1500, 57644u, 0x86D48C07u, 0xD985C1E1u},
    {"special", "abs-q4", 3, 2, 1500, 52454u, 0x3A510E51u, 0x9F7B6C48u},
    {"smooth", "abs", 33, 1, 1, 120u, 0x9F1D9F17u, 0xEC3DF7BAu},
    {"smooth", "rel", 33, 1, 1, 133u, 0x7922E48Du, 0x69131106u},
    {"smooth", "pwrel", 33, 1, 1, 295u, 0x4F49C704u, 0x34E1E971u},
    {"smooth", "abs-hyb", 33, 1, 1, 153u, 0x45FF0B54u, 0xEC3DF7BAu},
    {"smooth", "rel-hyb", 33, 1, 1, 166u, 0x37E2744Fu, 0x69131106u},
    {"smooth", "pwrel-hyb", 33, 1, 1, 328u, 0x90221D5Eu, 0x34E1E971u},
    {"smooth", "abs-q4", 33, 1, 1, 190u, 0x5318470Au, 0x65655A77u},
    {"special", "abs", 33, 1, 1, 207u, 0x71632E29u, 0xA3873250u},
    {"special", "rel", 33, 1, 1, 252u, 0x6348EB8Bu, 0x82E9F01Cu},
    {"special", "pwrel", 33, 1, 1, 364u, 0x09A1A2A1u, 0xB82CDFDDu},
    {"special", "abs-hyb", 33, 1, 1, 240u, 0x861172E8u, 0xA3873250u},
    {"special", "rel-hyb", 33, 1, 1, 285u, 0x46CC9940u, 0x82E9F01Cu},
    {"special", "pwrel-hyb", 33, 1, 1, 397u, 0xF0B3F349u, 0xB82CDFDDu},
    {"special", "abs-q4", 33, 1, 1, 279u, 0xF3E55129u, 0x79510AC5u},
    {"smooth", "abs", 33, 1, 1500, 9875u, 0x43F0F62Fu, 0x2140920Eu},
    {"smooth", "rel", 33, 1, 1500, 25829u, 0x829155A9u, 0xE7606E54u},
    {"smooth", "pwrel", 33, 1, 1500, 220347u, 0x9BA9C528u, 0x335B5D41u},
    {"smooth", "abs-hyb", 33, 1, 1500, 9894u, 0xB4934269u, 0x2140920Eu},
    {"smooth", "rel-hyb", 33, 1, 1500, 25851u, 0xFC4D4DF2u, 0xE7606E54u},
    {"smooth", "pwrel-hyb", 33, 1, 1500, 220364u, 0x89450EA2u, 0x335B5D41u},
    {"smooth", "abs-q4", 33, 1, 1500, 80085u, 0xB7C17C17u, 0xCF8F242Bu},
    {"special", "abs", 33, 1, 1500, 149292u, 0xB9594B54u, 0xEFEB66CDu},
    {"special", "rel", 33, 1, 1500, 99614u, 0x79F88EF6u, 0xAD7C32ACu},
    {"special", "pwrel", 33, 1, 1500, 279402u, 0x1E5BFC65u, 0xA5ADE36Du},
    {"special", "abs-hyb", 33, 1, 1500, 150094u, 0xB8068103u, 0x2DA1C82Au},
    {"special", "rel-hyb", 33, 1, 1500, 100257u, 0x99E1773Eu, 0xF8FEFDF3u},
    {"special", "pwrel-hyb", 33, 1, 1500, 279417u, 0xB7680C85u, 0xA5ADE36Du},
    {"special", "abs-q4", 33, 1, 1500, 216380u, 0xCAD39E2Fu, 0x743D7D1Bu},
    {"smooth", "abs", 33, 2, 1, 149u, 0x01816376u, 0xD51DFE65u},
    {"smooth", "rel", 33, 2, 1, 167u, 0x05F9B7FAu, 0x50B47771u},
    {"smooth", "pwrel", 33, 2, 1, 497u, 0x598C254Au, 0x3D16F42Au},
    {"smooth", "abs-hyb", 33, 2, 1, 182u, 0x287B853Fu, 0xD51DFE65u},
    {"smooth", "rel-hyb", 33, 2, 1, 200u, 0xBA6F2EB7u, 0x50B47771u},
    {"smooth", "pwrel-hyb", 33, 2, 1, 530u, 0xA23D94E9u, 0x3D16F42Au},
    {"smooth", "abs-q4", 33, 2, 1, 433u, 0x4E8A89BDu, 0x17DDF967u},
    {"special", "abs", 33, 2, 1, 327u, 0xB3064D01u, 0x312BDF2Eu},
    {"special", "rel", 33, 2, 1, 271u, 0x7CCCF21Eu, 0xFC643C4Bu},
    {"special", "pwrel", 33, 2, 1, 604u, 0x06262BADu, 0xB7CC1ACEu},
    {"special", "abs-hyb", 33, 2, 1, 360u, 0xDB6E1E1Bu, 0x312BDF2Eu},
    {"special", "rel-hyb", 33, 2, 1, 304u, 0xC12991A3u, 0xFC643C4Bu},
    {"special", "pwrel-hyb", 33, 2, 1, 637u, 0x63E5BAD8u, 0xB7CC1ACEu},
    {"special", "abs-q4", 33, 2, 1, 544u, 0x0D46395Au, 0x1916F4E7u},
    {"smooth", "abs", 33, 2, 1500, 24989u, 0x1B6E971Au, 0x4CC62504u},
    {"smooth", "rel", 33, 2, 1500, 67367u, 0x42E44ACBu, 0x353BDD87u},
    {"smooth", "pwrel", 33, 2, 1500, 420211u, 0x9C510367u, 0x9EF8BE1Eu},
    {"smooth", "abs-hyb", 33, 2, 1500, 25008u, 0x85EF8140u, 0x4CC62504u},
    {"smooth", "rel-hyb", 33, 2, 1500, 67389u, 0xF7CC1E3Cu, 0x353BDD87u},
    {"smooth", "pwrel-hyb", 33, 2, 1500, 420227u, 0x3A7CFA40u, 0x9EF8BE1Eu},
    {"smooth", "abs-q4", 33, 2, 1500, 210155u, 0x2C8BFE04u, 0x08CE8928u},
    {"special", "abs", 33, 2, 1500, 389349u, 0x2CE7A0FCu, 0xFBF6AB55u},
    {"special", "rel", 33, 2, 1500, 296909u, 0x39057865u, 0x8E0FF9BCu},
    {"special", "pwrel", 33, 2, 1500, 564563u, 0xD1D5D485u, 0x2743538Cu},
    {"special", "abs-hyb", 33, 2, 1500, 389368u, 0x6ACAD909u, 0xFBF6AB55u},
    {"special", "rel-hyb", 33, 2, 1500, 296924u, 0x57BB6E84u, 0x8E0FF9BCu},
    {"special", "pwrel-hyb", 33, 2, 1500, 564155u, 0x911CB8A8u, 0xF11AD1AFu},
    {"special", "abs-q4", 33, 2, 1500, 553871u, 0x55A54781u, 0xCB0CDCCBu},
    {"smooth", "abs", 41, 37, 50, 24174u, 0x3528A7B3u, 0xCC250160u},
    {"smooth", "rel", 41, 37, 50, 56282u, 0x0D736E7Fu, 0xE9D3977Du},
    {"smooth", "pwrel", 41, 37, 50, 242659u, 0xBCCDA472u, 0x1D9C435Bu},
    {"smooth", "abs-hyb", 41, 37, 50, 24193u, 0x2E6BAC0Eu, 0xCC250160u},
    {"smooth", "rel-hyb", 41, 37, 50, 56309u, 0x2E79FF4Eu, 0xE9D3977Du},
    {"smooth", "pwrel-hyb", 41, 37, 50, 242672u, 0xBA77F2A4u, 0x1D9C435Bu},
    {"smooth", "abs-q4", 41, 37, 50, 195120u, 0x735C811Au, 0x377119EDu},
    {"special", "abs", 41, 37, 50, 307083u, 0xCC7D8913u, 0x1797F76Du},
    {"special", "rel", 41, 37, 50, 209688u, 0x5F534C4Bu, 0x8E2E12C3u},
    {"special", "pwrel", 41, 37, 50, 375097u, 0xBE5E75B0u, 0xF94CB4FCu},
    {"special", "abs-hyb", 41, 37, 50, 307145u, 0x451FA15Bu, 0xB1DF83FFu},
    {"special", "rel-hyb", 41, 37, 50, 209752u, 0x45BE2A28u, 0x8766F051u},
    {"special", "pwrel-hyb", 41, 37, 50, 373116u, 0x6003F697u, 0x92742FC7u},
    {"special", "abs-q4", 41, 37, 50, 411643u, 0x2FB1B91Au, 0xCAE56269u},
};

TEST(SzGolden, StreamsAndDecodedValuesArePinned) {
  std::size_t checked = 0;
  for (const Dims& dims : pinned_shapes()) {
    for (const bool special : {false, true}) {
      const auto values = special ? special_field(dims) : smooth_field(dims);
      const char* field = special ? "special" : "smooth";
      for (const NamedConfig& config : kConfigs) {
        const SzCompressor codec(config.options);
        const auto bytes = codec.compress(values, dims);
        const auto decoded = codec.decompress(bytes);
        ASSERT_EQ(decoded.size(), values.size());
        const std::string row =
            std::string("{\"") + field + "\", \"" + config.name + "\", " +
            std::to_string(dims.nx) + ", " + std::to_string(dims.ny) + ", " +
            std::to_string(dims.nz) + ", " + std::to_string(bytes.size()) +
            "u, " + hex(io::crc32(bytes)) + ", " + hex(crc_of(decoded)) +
            "},";
        const auto* pin = std::find_if(
            std::begin(kSzPins), std::end(kSzPins), [&](const SzPin& p) {
              return std::string(field) == p.field &&
                     std::string(config.name) == p.config &&
                     Dims{p.nx, p.ny, p.nz} == dims;
            });
        if (pin == std::end(kSzPins)) {
          ADD_FAILURE() << "no pin for " << row;
          continue;
        }
        EXPECT_EQ(bytes.size(), pin->size) << row;
        EXPECT_EQ(io::crc32(bytes), pin->crc) << row;
        EXPECT_EQ(crc_of(decoded), pin->decoded) << row;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kSzPins));
}

}  // namespace
}  // namespace rmp::compress
