#include "common/codec.h"

#include <chrono>

#include "common/crc32.h"
#include "common/strings.h"

namespace tcss {
namespace {

/// CRC over id || payload, the integrity span of a frame.
uint32_t FrameCrc(uint64_t id, std::string_view payload) {
  std::string id_bytes;
  PutU64(id, &id_bytes);
  return Crc32(payload, Crc32(id_bytes));
}

}  // namespace

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI32(int32_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
}

void PutF64(double v, std::string* out) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

void PutF64s(const double* v, size_t n, std::string* out) {
  if (n == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    out->append(reinterpret_cast<const char*>(v), n * 8);
  } else {
    for (size_t i = 0; i < n; ++i) PutF64(v[i], out);
  }
}

void PutF64Array(const std::vector<double>& v, std::string* out) {
  PutU32(static_cast<uint32_t>(v.size()), out);
  PutF64s(v.data(), v.size(), out);
}

void PutI32Array(const std::vector<int32_t>& v, std::string* out) {
  PutU32(static_cast<uint32_t>(v.size()), out);
  for (int32_t x : v) PutI32(x, out);
}

void PutString(std::string_view s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

void PutCrc32Trailer(std::string* out) { PutU32(Crc32(*out), out); }

Status OpenSignedBytes(std::string_view file, std::string_view magic,
                       ByteCursor* body) {
  if (file.size() < magic.size() + 4) {
    return Status::IOError(StrFormat("file of %zu bytes is too short",
                                     file.size()));
  }
  const std::string_view signed_part = file.substr(0, file.size() - 4);
  ByteCursor trailer(file.substr(file.size() - 4));
  uint32_t stored = 0;
  trailer.TakeU32(&stored);
  const uint32_t actual = Crc32(signed_part);
  if (signed_part.substr(0, magic.size()) != magic) {
    return Status::IOError("bad magic");
  }
  if (actual != stored) {
    return Status::IOError(StrFormat(
        "CRC mismatch (stored %08x, computed %08x)", stored, actual));
  }
  *body = ByteCursor(signed_part.substr(magic.size()));
  return Status::OK();
}

std::string EncodeFrame(uint32_t magic, const Frame& frame) {
  std::string out;
  out.reserve(kFrameHeaderSize + frame.payload.size() + kFrameTrailerSize);
  PutU32(magic, &out);
  PutU64(frame.id, &out);
  PutU32(static_cast<uint32_t>(frame.payload.size()), &out);
  out += frame.payload;
  PutU32(FrameCrc(frame.id, frame.payload), &out);
  return out;
}

Result<bool> DecodeFrame(uint32_t magic, std::string_view buf, Frame* out,
                         size_t* consumed, size_t max_payload) {
  *consumed = 0;
  ByteCursor cur(buf);
  uint32_t got_magic = 0;
  if (!cur.TakeU32(&got_magic)) {
    // Even a partial magic must match, so garbage is rejected at the
    // first byte instead of after a timeout.
    for (size_t i = 0; i < buf.size(); ++i) {
      if (static_cast<unsigned char>(buf[i]) !=
          static_cast<unsigned char>(magic >> (8 * i))) {
        return Status::InvalidArgument("bad frame magic");
      }
    }
    return false;
  }
  if (got_magic != magic) {
    return Status::InvalidArgument("bad frame magic");
  }
  uint64_t id = 0;
  uint32_t len = 0;
  if (!cur.TakeU64(&id) || !cur.TakeU32(&len)) return false;
  // The 16-byte header validated; surface its id even when the rest of
  // the frame is bad (absurd length, CRC mismatch), so the error response
  // can echo the request that triggered it and a pipelined client can
  // correlate the failure.
  out->id = id;
  if (len > max_payload) {
    return Status::InvalidArgument(
        StrFormat("frame payload length %u exceeds cap %zu",
                  static_cast<unsigned>(len), max_payload));
  }
  std::string_view payload;
  uint32_t want = 0;
  if (!cur.TakeBytes(len, &payload) || !cur.TakeU32(&want)) return false;
  if (want != FrameCrc(id, payload)) {
    return Status::InvalidArgument("frame CRC mismatch");
  }
  out->payload.assign(payload);
  *consumed = kFrameHeaderSize + len + kFrameTrailerSize;
  return true;
}

Result<FrameReader::Event> FrameReader::Next(Conn* conn, uint32_t magic,
                                             Frame* out,
                                             const std::atomic<bool>* stop,
                                             int tick_ms, int deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    if (!buf_.empty()) {
      size_t consumed = 0;
      auto got = DecodeFrame(magic, buf_, out, &consumed, max_payload_);
      if (!got.ok()) return got.status();
      if (got.value()) {
        buf_.erase(0, consumed);
        return Event::kFrame;
      }
    }
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return Event::kStopped;
    }
    if (deadline_ms >= 0 &&
        std::chrono::steady_clock::now() - start >=
            std::chrono::milliseconds(deadline_ms)) {
      return Event::kTimeout;
    }
    char chunk[16384];
    size_t n = 0;
    auto ev = conn->Read(chunk, sizeof(chunk), &n, tick_ms);
    if (!ev.ok()) return ev.status();
    switch (ev.value()) {
      case IoEvent::kData:
        buf_.append(chunk, n);
        break;
      case IoEvent::kEof:
        if (!buf_.empty()) {
          // The peer died mid-send: distinct from a clean close, so
          // callers can tell a crash from a goodbye.
          return Status::InvalidArgument("connection closed mid-frame");
        }
        return Event::kEof;
      case IoEvent::kTimeout:
        break;  // idle tick: loop re-checks the stop flag and deadline
    }
  }
}

}  // namespace tcss
