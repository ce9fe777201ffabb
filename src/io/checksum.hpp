// CRC-32 (IEEE 802.3 polynomial, zlib-compatible) for container
// integrity: a silently corrupted delta would decode into plausible but
// wrong science, so every container carries a checksum.
// Sliced by 16 bytes in portable C++; not SSE4.2 `crc32`, which computes
// CRC-32C (another polynomial) and would change every stored checksum.
#pragma once

#include <cstdint>
#include <span>

namespace rmp::io {

std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t seed = 0);

}  // namespace rmp::io
