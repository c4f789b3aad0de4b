#include "serve/frontend.h"

#include <cmath>
#include <limits>

#include "common/strings.h"

namespace tcss {

const char* ShedReasonName(ShedReason r) {
  switch (r) {
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kDeadline:
      return "deadline";
    case ShedReason::kExpired:
      return "expired";
    case ShedReason::kDraining:
      return "draining";
    case ShedReason::kOverloaded:
      return "overloaded";
  }
  return "unknown";
}

std::string EncodeResponsePayload(const WireResponse& resp) {
  switch (resp.kind) {
    case WireResponse::Kind::kOk: {
      std::string s = StrFormat("ok tier=%s latency_ms=%.6f recs=",
                                ServeTierName(resp.tier), resp.latency_ms);
      // The server must never emit a frame its own protocol rejects:
      // kMaxRequestK recs at ~30 bytes each would overflow the 1 MiB
      // kMaxFramePayload that DecodeFrame enforces, so the lowest-ranked
      // tail is truncated once the payload would exceed the cap.
      for (size_t i = 0; i < resp.recs.size(); ++i) {
        const std::string rec =
            StrFormat("%u:%.17g", resp.recs[i].poi, resp.recs[i].score);
        const size_t sep = i > 0 ? 1 : 0;
        if (s.size() + sep + rec.size() > kMaxFramePayload) break;
        if (i > 0) s += ',';
        s += rec;
      }
      return s;
    }
    case WireResponse::Kind::kIngested:
      return StrFormat("ingested seq=%llu",
                       static_cast<unsigned long long>(resp.seq));
    case WireResponse::Kind::kShed:
      return StrFormat("shed reason=%s", ShedReasonName(resp.shed));
    case WireResponse::Kind::kError: {
      std::string s = "error ";
      // Clamped for the same reason as the recs above.
      s.append(resp.message, 0, kMaxFramePayload - s.size());
      return s;
    }
  }
  return "error internal";
}

Result<WireResponse> ParseResponsePayload(std::string_view payload) {
  WireResponse resp;
  const std::string text(payload);
  if (text.rfind("error ", 0) == 0) {
    resp.kind = WireResponse::Kind::kError;
    resp.message = text.substr(6);
    return resp;
  }
  if (text.rfind("ingested seq=", 0) == 0) {
    size_t seq = 0;
    if (!ParseIndex(text.substr(13), &seq)) {
      return Status::InvalidArgument("bad ingest seq '" + text + "'");
    }
    resp.kind = WireResponse::Kind::kIngested;
    resp.seq = static_cast<uint64_t>(seq);
    return resp;
  }
  if (text.rfind("shed reason=", 0) == 0) {
    const std::string reason = text.substr(12);
    for (int r = 0; r < kNumShedReasons; ++r) {
      if (reason == ShedReasonName(static_cast<ShedReason>(r))) {
        resp.kind = WireResponse::Kind::kShed;
        resp.shed = static_cast<ShedReason>(r);
        return resp;
      }
    }
    return Status::InvalidArgument("unknown shed reason '" + reason + "'");
  }
  // ok tier=<t> latency_ms=<ms> recs=<j:score,...>
  std::vector<std::string> tokens;
  for (const auto& t : Split(text, ' ')) {
    if (!Trim(t).empty()) tokens.emplace_back(Trim(t));
  }
  if (tokens.size() != 4 || tokens[0] != "ok" ||
      tokens[1].rfind("tier=", 0) != 0 ||
      tokens[2].rfind("latency_ms=", 0) != 0 ||
      tokens[3].rfind("recs=", 0) != 0) {
    return Status::InvalidArgument("malformed response payload");
  }
  resp.kind = WireResponse::Kind::kOk;
  const std::string tier = tokens[1].substr(5);
  bool tier_ok = false;
  for (int t = 0; t < kNumServeTiers; ++t) {
    if (tier == ServeTierName(static_cast<ServeTier>(t))) {
      resp.tier = static_cast<ServeTier>(t);
      tier_ok = true;
      break;
    }
  }
  if (!tier_ok) {
    return Status::InvalidArgument("unknown tier '" + tier + "'");
  }
  if (!ParseDouble(tokens[2].substr(11), &resp.latency_ms) ||
      !std::isfinite(resp.latency_ms) || resp.latency_ms < 0) {
    return Status::InvalidArgument("bad latency '" + tokens[2] + "'");
  }
  const std::string recs = tokens[3].substr(5);
  if (!recs.empty()) {
    for (const auto& pair : Split(recs, ',')) {
      const size_t colon = pair.find(':');
      if (colon == std::string::npos) {
        return Status::InvalidArgument("bad rec '" + pair + "'");
      }
      size_t poi = 0;
      double score = 0.0;
      if (!ParseIndex(pair.substr(0, colon), &poi) ||
          poi > std::numeric_limits<uint32_t>::max() ||
          !ParseDouble(pair.substr(colon + 1), &score) ||
          !std::isfinite(score)) {
        return Status::InvalidArgument("bad rec '" + pair + "'");
      }
      if (resp.recs.size() >= kMaxRequestK) {
        return Status::InvalidArgument("too many recs");
      }
      resp.recs.push_back({static_cast<uint32_t>(poi), score});
    }
  }
  return resp;
}

}  // namespace tcss
