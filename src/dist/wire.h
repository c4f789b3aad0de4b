#ifndef TCSS_DIST_WIRE_H_
#define TCSS_DIST_WIRE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "common/env.h"
#include "common/status.h"

namespace tcss {

/// Wire protocol of the distributed training engine (src/dist).
///
/// Transport framing is the shared length-prefixed CRC32 frame codec
/// (common/codec.h) under its own magic, so every control and gradient
/// message inherits the same integrity guarantees the serving request
/// path proved under fuzzing: a bit flip anywhere past the magic fails the
/// CRC, an absurd length is rejected before allocation, and a truncated
/// frame can never parse.
///
/// The payload is binary, little-endian, written with the same codec:
///
///   [u8 type] [u32 gen] [type-specific fields]
///
/// `gen` is the coordinator's recovery generation. Every recovery
/// increments it, and both sides drop messages from older generations —
/// a gradient computed before a worker died cannot contaminate the
/// restarted epoch. Doubles travel as their raw IEEE-754 bit patterns
/// (u64), which is what makes distributed training *bit*-deterministic:
/// no text round-trip, no last-ulp drift.
inline constexpr uint32_t kDistMagic = 0x4d445154u;  // "TQDM" LE

/// Gradient/final frames carry whole replicated factors (J*r + K*r + r
/// doubles) or a U1 row block, so the cap is far above the serving
/// frontend's: 256 MiB covers ~1M users x rank 32 in one final frame.
inline constexpr size_t kMaxDistPayload = 1u << 28;

enum class DistMsgType : uint8_t {
  /// worker -> coordinator. First message on every (re)connection, and
  /// the answer to kReport: identifies the rank and proves config/data
  /// compatibility via the fingerprint; lists the epochs of the shard
  /// checkpoints this worker can actually reload (the coordinator resumes
  /// from the newest epoch common to all workers).
  kHello = 1,
  /// coordinator -> worker: (re)start training from `epoch` completed
  /// epochs under generation `gen`. epoch == 0 means cold start.
  kStart = 2,
  /// worker -> coordinator: the barrier contribution of one epoch — the
  /// local L2 loss partial, the max-abs of the local U1 gradient block,
  /// the full U2/U3/h gradient partials, and the worker's current U3
  /// replica (the coordinator's temporal-smoothness input, doubling as a
  /// bitwise lockstep check across workers).
  kGrad = 3,
  /// coordinator -> worker: the barrier result. Either one Adam step
  /// (reduced U2/U3/h gradients + effective learning rate) or a rollback
  /// to the last verified-good state with a smaller LR scale.
  kReduced = 4,
  /// worker -> coordinator: liveness beacon, sent from a dedicated thread
  /// even while the main thread grinds through a long epoch.
  kHeartbeat = 5,
  /// worker -> coordinator: shard checkpoint for `epoch` is durable.
  kCkptAck = 6,
  /// worker -> coordinator: the trained U1 row block plus the replicated
  /// U2/U3/h (the coordinator cross-checks the replicas bitwise before
  /// assembling the full model).
  kFinal = 7,
  /// coordinator -> worker: training is over, disconnect.
  kShutdown = 8,
  /// coordinator -> worker: a peer died; re-send kHello with your current
  /// checkpoint availability so recovery can pick a common epoch.
  kReport = 9,
  /// coordinator -> worker: unrecoverable failure, give up (text carries
  /// the diagnostic).
  kAbort = 10,
};

/// kReduced actions.
inline constexpr uint8_t kActionStep = 0;
inline constexpr uint8_t kActionRollback = 1;

/// kReduced flag bits.
inline constexpr uint8_t kFlagCheckpoint = 1;  ///< snapshot after this step
inline constexpr uint8_t kFlagLastEpoch = 2;   ///< send kFinal afterwards

/// One decoded message (tagged union; only the fields of `type` are
/// meaningful).
struct DistMsg {
  DistMsgType type = DistMsgType::kHeartbeat;
  uint32_t gen = 0;

  // kHello
  uint32_t rank = 0;
  uint32_t num_workers = 0;
  uint64_t fingerprint = 0;
  std::vector<int32_t> ckpt_epochs;

  // kStart / kGrad / kReduced / kCkptAck / kFinal
  int32_t epoch = 0;

  // kReduced
  uint8_t action = kActionStep;
  uint8_t flags = 0;
  double lr = 0.0;

  // kGrad / kReduced
  double lr_scale = 0.0;

  // kGrad
  double loss = 0.0;
  double grad_maxabs = 0.0;
  std::vector<double> u3_replica;

  // kGrad (partials) / kReduced (reduced) / kFinal (trained replicas)
  std::vector<double> u2;
  std::vector<double> u3;
  std::vector<double> h;

  // kFinal
  std::vector<double> u1;

  // kAbort
  std::string text;
};

const char* DistMsgTypeName(DistMsgType t);

/// Serializes the payload (not the frame).
std::string EncodeDistMsg(const DistMsg& msg);

/// Strict, bounds-checked parse of a payload: unknown types, short
/// buffers, oversized array counts and trailing bytes are all errors —
/// the fuzz suite sweeps every byte of every message type through here.
Result<DistMsg> ParseDistMsg(std::string_view payload);

/// Frames and writes one message. Callers sharing a Conn between the
/// heartbeat thread and the main loop must serialize calls themselves.
Status SendDistMsg(Conn* conn, const DistMsg& msg, int timeout_ms);

/// Reads the next message through `reader` (constructed with
/// kMaxDistPayload): on kFrame, `*out` holds the parsed message. Waits as
/// FrameReader::Next does, ticking every 50 ms; a frame whose payload
/// does not parse is an error, like a malformed frame — the stream
/// cannot be resynchronized and the connection must be dropped.
Result<FrameReader::Event> ReadDistMsg(FrameReader* reader, Conn* conn,
                                       DistMsg* out, int deadline_ms,
                                       const std::atomic<bool>* stop);

}  // namespace tcss

#endif  // TCSS_DIST_WIRE_H_
