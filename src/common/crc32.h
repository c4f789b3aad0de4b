#ifndef TCSS_COMMON_CRC32_H_
#define TCSS_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tcss {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum used
/// by zip/png. Guards model files, checkpoints and wire frames against
/// torn writes and bit rot (common/codec.h); not a cryptographic integrity
/// check.
uint32_t Crc32(const void* data, size_t n, uint32_t crc = 0);

inline uint32_t Crc32(std::string_view s, uint32_t crc = 0) {
  return Crc32(s.data(), s.size(), crc);
}

}  // namespace tcss

#endif  // TCSS_COMMON_CRC32_H_
