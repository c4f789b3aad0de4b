#ifndef TCSS_SERVE_FRONTEND_H_
#define TCSS_SERVE_FRONTEND_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "core/recommend.h"
#include "serve/request.h"

namespace tcss {

/// Wire protocol of the serving front-end (`tcss serve --listen`).
///
/// Every message is one frame of the shared codec (common/codec.h, which
/// this header re-exports: Frame, EncodeFrame, DecodeFrame, FrameReader,
/// kMaxFramePayload) under the magic "TQRQ" (request) or "TQRS"
/// (response). The client chooses each request's frame id and the
/// server echoes it verbatim in the response, so pipelined clients can
/// correlate out-of-order completions.
///
/// The payload is text: requests use the ParseRequestLine grammar
/// ("topk <user> <time_bin> [k=N] [new] [deadline_ms=X] [cand=...]
/// [within_km=KM,LAT,LON]"), responses the WireResponse grammar
/// below. A byte stream that produced a malformed frame cannot be
/// resynchronized, so the server answers once with an error frame and
/// closes the connection.
inline constexpr uint32_t kRequestMagic = 0x51525154u;   // "TQRQ" LE
inline constexpr uint32_t kResponseMagic = 0x53525154u;  // "TQRS" LE

inline std::string EncodeRequestFrame(const Frame& f) {
  return EncodeFrame(kRequestMagic, f);
}
inline std::string EncodeResponseFrame(const Frame& f) {
  return EncodeFrame(kResponseMagic, f);
}

/// Why the server refused to answer a request with a result.
enum class ShedReason {
  kQueueFull = 0,   ///< bounded queue at capacity (backpressure)
  kDeadline = 1,    ///< admission control: predicted time > budget
  kExpired = 2,     ///< deadline passed while queued
  kDraining = 3,    ///< graceful shutdown in progress
  kOverloaded = 4,  ///< connection limit reached
};
inline constexpr int kNumShedReasons = 5;

/// "queue_full" / "deadline" / "expired" / "draining" / "overloaded".
const char* ShedReasonName(ShedReason r);

/// Typed response payload. Exactly one of these four shapes goes back
/// for every accepted request:
///   ok       — `ok tier=<t> latency_ms=<ms> recs=<j:score,...>`
///   ingested — `ingested seq=<n>` (ack of one accepted ingest verb; seq
///              is the engine's monotone accept counter, so a client can
///              reconcile its ledger against the server's)
///   shed     — `shed reason=<r>`
///   error    — `error <message>`
struct WireResponse {
  enum class Kind { kOk, kShed, kError, kIngested };
  Kind kind = Kind::kError;
  ServeTier tier = ServeTier::kPopularity;  ///< kOk only
  double latency_ms = 0.0;                  ///< kOk only
  ShedReason shed = ShedReason::kQueueFull; ///< kShed only
  std::string message;                      ///< kError only
  std::vector<Recommendation> recs;         ///< kOk only
  uint64_t seq = 0;                         ///< kIngested only
};

/// Encodes the payload, guaranteed to fit kMaxFramePayload so the server
/// never emits a frame the client-side DecodeFrame rejects: an ok
/// response drops its lowest-ranked recs once the cap is reached (a
/// k=kMaxRequestK answer over a large catalogue would otherwise encode to
/// several MiB), and an error message is clamped.
std::string EncodeResponsePayload(const WireResponse& resp);

/// Strict parse of the response grammar; rejects anything else so tests
/// and clients can assert "well-formed response" mechanically.
Result<WireResponse> ParseResponsePayload(std::string_view payload);

}  // namespace tcss

#endif  // TCSS_SERVE_FRONTEND_H_
