#ifndef TCSS_COMMON_CODEC_H_
#define TCSS_COMMON_CODEC_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.h"
#include "common/status.h"

namespace tcss {

/// The one exact encoding of numbers in this codebase: fixed-width
/// little-endian integers and doubles as their raw IEEE-754 bits, so the
/// value that is read back is the value that was written, to the last
/// bit. Model files (TCSSv3), checkpoints (TCKPv2), serving frames and
/// the distributed engine's messages are all written with these
/// primitives (DESIGN.md §5, §10, §11).

void PutU8(uint8_t v, std::string* out);
void PutU32(uint32_t v, std::string* out);
void PutU64(uint64_t v, std::string* out);
void PutI32(int32_t v, std::string* out);
void PutF64(double v, std::string* out);
/// `n` raw doubles, no count: for blocks whose length a header implies.
void PutF64s(const double* v, size_t n, std::string* out);
/// u32 count, then the values.
void PutF64Array(const std::vector<double>& v, std::string* out);
void PutI32Array(const std::vector<int32_t>& v, std::string* out);
/// u32 length, then the bytes.
void PutString(std::string_view s, std::string* out);

/// Bounds-checked sequential reader over a byte buffer. Every Take* fails
/// (returns false) instead of reading past the end, and a count read from
/// the buffer is checked against the bytes actually present before any
/// allocation, so a flipped length cannot balloon memory.
class ByteCursor {
 public:
  ByteCursor() = default;
  explicit ByteCursor(std::string_view data) : data_(data) {}

  bool TakeU8(uint8_t* out) {
    if (data_.empty()) return false;
    *out = static_cast<uint8_t>(data_[0]);
    data_.remove_prefix(1);
    return true;
  }

  bool TakeU32(uint32_t* out) {
    if (data_.size() < 4) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[i])) << (8 * i);
    }
    data_.remove_prefix(4);
    *out = v;
    return true;
  }

  bool TakeU64(uint64_t* out) {
    if (data_.size() < 8) return false;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[i])) << (8 * i);
    }
    data_.remove_prefix(8);
    *out = v;
    return true;
  }

  bool TakeI32(int32_t* out) {
    uint32_t v = 0;
    if (!TakeU32(&v)) return false;
    *out = static_cast<int32_t>(v);
    return true;
  }

  bool TakeF64(double* out) {
    uint64_t bits = 0;
    if (!TakeU64(&bits)) return false;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }

  /// `n` raw doubles into `out[0..n)`.
  bool TakeF64s(double* out, size_t n) {
    if (n > data_.size() / 8) return false;
    if (n == 0) return true;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, data_.data(), n * 8);
      data_.remove_prefix(n * 8);
    } else {
      for (size_t i = 0; i < n; ++i) TakeF64(&out[i]);
    }
    return true;
  }

  bool TakeF64Array(std::vector<double>* out) {
    uint32_t count = 0;
    if (!TakeU32(&count) || count > data_.size() / 8) return false;
    out->resize(count);
    return TakeF64s(out->data(), count);
  }

  bool TakeI32Array(std::vector<int32_t>* out) {
    uint32_t count = 0;
    if (!TakeU32(&count) || count > data_.size() / 4) return false;
    out->resize(count);
    for (uint32_t i = 0; i < count; ++i) TakeI32(&(*out)[i]);
    return true;
  }

  /// The next `n` bytes, as a view into the buffer.
  bool TakeBytes(size_t n, std::string_view* out) {
    if (n > data_.size()) return false;
    *out = data_.substr(0, n);
    data_.remove_prefix(n);
    return true;
  }

  bool TakeString(std::string* out) {
    uint32_t len = 0;
    std::string_view bytes;
    if (!TakeU32(&len) || !TakeBytes(len, &bytes)) return false;
    out->assign(bytes);
    return true;
  }

  size_t remaining() const { return data_.size(); }
  bool AtEnd() const { return data_.empty(); }

 private:
  std::string_view data_;
};

// --- Signed files -------------------------------------------------------
//
// A TCSSv3 model or TCKPv2 checkpoint is `magic || body || crc`, where
// `crc` is the little-endian CRC-32 of every byte before it.

/// Appends the CRC-32 of every byte already in `*out`.
void PutCrc32Trailer(std::string* out);

/// Opens a signed file: checks the CRC trailer, then the magic, and
/// points `*body` at the bytes between them. A file whose magic is wrong
/// is reported as "bad magic" even when its CRC fails too, so a file of
/// another format (a text model from before TCSSv3, say) says so instead
/// of "CRC mismatch".
Status OpenSignedBytes(std::string_view file, std::string_view magic,
                       ByteCursor* body);

// --- Frames -------------------------------------------------------------
//
// Every message on a stream transport — serving requests and responses,
// and the distributed engine's control and gradient messages — is one
// length-prefixed, CRC-checked frame:
//
//   magic      4 bytes   little-endian u32, one per protocol and direction
//   id         8 bytes   little-endian u64, echoed by the serving layer
//   len        4 bytes   little-endian u32 payload length
//   payload    len bytes
//   crc        4 bytes   little-endian CRC-32 over id||payload
//
// The CRC covers the id too, so a bit flip anywhere past the magic is
// detected; a flipped magic or an absurd length is rejected before any
// allocation. A byte stream that produced a malformed frame cannot be
// resynchronized: the connection must be dropped.
inline constexpr size_t kFrameHeaderSize = 16;  // magic+id+len
inline constexpr size_t kFrameTrailerSize = 4;  // crc
inline constexpr size_t kMaxFramePayload = 1u << 20;

/// One decoded frame (either direction).
struct Frame {
  uint64_t id = 0;
  std::string payload;
};

/// Serializes a frame under the given magic.
std::string EncodeFrame(uint32_t magic, const Frame& frame);

/// Attempts to decode one frame from the front of `buf`.
///   ok(true)   — a full frame was decoded; `*consumed` bytes were used
///                (any remainder is the start of the next frame).
///   ok(false)  — `buf` is a consistent prefix; read more bytes.
///   error      — malformed: wrong magic, length beyond `max_payload`,
///                or CRC mismatch. The stream cannot be resynchronized.
///                When the 16-byte header itself validated (only the
///                length/payload/CRC were bad), `out->id` carries the
///                header's id so an error response can echo it.
Result<bool> DecodeFrame(uint32_t magic, std::string_view buf, Frame* out,
                         size_t* consumed,
                         size_t max_payload = kMaxFramePayload);

/// Incremental frame reader over a Conn. Buffers partial frames across
/// reads, so pipelined peers (many frames per segment) and slow peers
/// (one frame over many segments) both decode correctly.
class FrameReader {
 public:
  enum class Event { kFrame, kEof, kStopped, kTimeout };

  /// Frames longer than `max_payload` are malformed.
  explicit FrameReader(size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Blocks until one full frame arrives (ok(kFrame)), the peer closes
  /// cleanly between frames (kEof), `*stop` becomes true (kStopped,
  /// checked every `tick_ms`; stop may be null), or `deadline_ms` passes
  /// with no complete frame (kTimeout; negative = no deadline). Errors:
  /// malformed frame, EOF inside a frame (the peer died mid-send), or a
  /// transport failure.
  Result<Event> Next(Conn* conn, uint32_t magic, Frame* out,
                     const std::atomic<bool>* stop, int tick_ms,
                     int deadline_ms = -1);

  /// Bytes buffered beyond the last returned frame.
  size_t buffered() const { return buf_.size(); }

 private:
  size_t max_payload_;
  std::string buf_;
};

}  // namespace tcss

#endif  // TCSS_COMMON_CODEC_H_
