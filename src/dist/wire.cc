#include "dist/wire.h"

namespace tcss {

const char* DistMsgTypeName(DistMsgType t) {
  switch (t) {
    case DistMsgType::kHello: return "hello";
    case DistMsgType::kStart: return "start";
    case DistMsgType::kGrad: return "grad";
    case DistMsgType::kReduced: return "reduced";
    case DistMsgType::kHeartbeat: return "heartbeat";
    case DistMsgType::kCkptAck: return "ckpt-ack";
    case DistMsgType::kFinal: return "final";
    case DistMsgType::kShutdown: return "shutdown";
    case DistMsgType::kReport: return "report";
    case DistMsgType::kAbort: return "abort";
  }
  return "unknown";
}

std::string EncodeDistMsg(const DistMsg& msg) {
  std::string out;
  PutU8(static_cast<uint8_t>(msg.type), &out);
  PutU32(msg.gen, &out);
  switch (msg.type) {
    case DistMsgType::kHello:
      PutU32(msg.rank, &out);
      PutU32(msg.num_workers, &out);
      PutU64(msg.fingerprint, &out);
      PutI32Array(msg.ckpt_epochs, &out);
      break;
    case DistMsgType::kStart:
      PutI32(msg.epoch, &out);
      break;
    case DistMsgType::kGrad:
      PutI32(msg.epoch, &out);
      PutF64(msg.loss, &out);
      PutF64(msg.grad_maxabs, &out);
      PutF64(msg.lr_scale, &out);
      PutF64Array(msg.u2, &out);
      PutF64Array(msg.u3, &out);
      PutF64Array(msg.h, &out);
      PutF64Array(msg.u3_replica, &out);
      break;
    case DistMsgType::kReduced:
      PutI32(msg.epoch, &out);
      PutU8(msg.action, &out);
      PutU8(msg.flags, &out);
      PutF64(msg.lr, &out);
      PutF64(msg.lr_scale, &out);
      PutF64Array(msg.u2, &out);
      PutF64Array(msg.u3, &out);
      PutF64Array(msg.h, &out);
      break;
    case DistMsgType::kHeartbeat:
    case DistMsgType::kShutdown:
    case DistMsgType::kReport:
      break;
    case DistMsgType::kCkptAck:
      PutI32(msg.epoch, &out);
      break;
    case DistMsgType::kFinal:
      PutI32(msg.epoch, &out);
      PutF64Array(msg.u1, &out);
      PutF64Array(msg.u2, &out);
      PutF64Array(msg.u3, &out);
      PutF64Array(msg.h, &out);
      break;
    case DistMsgType::kAbort:
      PutString(msg.text, &out);
      break;
  }
  return out;
}

Result<DistMsg> ParseDistMsg(std::string_view payload) {
  ByteCursor cur(payload);
  uint8_t type_byte = 0;
  DistMsg msg;
  if (!cur.TakeU8(&type_byte) || !cur.TakeU32(&msg.gen)) {
    return Status::IOError("dist message too short");
  }
  if (type_byte < static_cast<uint8_t>(DistMsgType::kHello) ||
      type_byte > static_cast<uint8_t>(DistMsgType::kAbort)) {
    return Status::IOError("unknown dist message type");
  }
  msg.type = static_cast<DistMsgType>(type_byte);
  bool ok = true;
  switch (msg.type) {
    case DistMsgType::kHello:
      ok = cur.TakeU32(&msg.rank) && cur.TakeU32(&msg.num_workers) &&
           cur.TakeU64(&msg.fingerprint) && cur.TakeI32Array(&msg.ckpt_epochs);
      break;
    case DistMsgType::kStart:
      ok = cur.TakeI32(&msg.epoch);
      break;
    case DistMsgType::kGrad:
      ok = cur.TakeI32(&msg.epoch) && cur.TakeF64(&msg.loss) &&
           cur.TakeF64(&msg.grad_maxabs) && cur.TakeF64(&msg.lr_scale) &&
           cur.TakeF64Array(&msg.u2) && cur.TakeF64Array(&msg.u3) &&
           cur.TakeF64Array(&msg.h) && cur.TakeF64Array(&msg.u3_replica);
      break;
    case DistMsgType::kReduced:
      ok = cur.TakeI32(&msg.epoch) && cur.TakeU8(&msg.action) &&
           cur.TakeU8(&msg.flags) && cur.TakeF64(&msg.lr) &&
           cur.TakeF64(&msg.lr_scale) && cur.TakeF64Array(&msg.u2) &&
           cur.TakeF64Array(&msg.u3) && cur.TakeF64Array(&msg.h);
      if (ok && msg.action != kActionStep && msg.action != kActionRollback) {
        ok = false;
      }
      break;
    case DistMsgType::kHeartbeat:
    case DistMsgType::kShutdown:
    case DistMsgType::kReport:
      break;
    case DistMsgType::kCkptAck:
      ok = cur.TakeI32(&msg.epoch);
      break;
    case DistMsgType::kFinal:
      ok = cur.TakeI32(&msg.epoch) && cur.TakeF64Array(&msg.u1) &&
           cur.TakeF64Array(&msg.u2) && cur.TakeF64Array(&msg.u3) &&
           cur.TakeF64Array(&msg.h);
      break;
    case DistMsgType::kAbort:
      ok = cur.TakeString(&msg.text);
      break;
  }
  if (!ok) {
    return Status::IOError(std::string("malformed dist message: ") +
                           DistMsgTypeName(msg.type));
  }
  if (!cur.AtEnd()) {
    return Status::IOError(std::string("trailing bytes in dist message: ") +
                           DistMsgTypeName(msg.type));
  }
  return msg;
}

Status SendDistMsg(Conn* conn, const DistMsg& msg, int timeout_ms) {
  Frame frame;
  frame.id = msg.gen;
  frame.payload = EncodeDistMsg(msg);
  return conn->Write(EncodeFrame(kDistMagic, frame), timeout_ms);
}

Result<FrameReader::Event> ReadDistMsg(FrameReader* reader, Conn* conn,
                                       DistMsg* out, int deadline_ms,
                                       const std::atomic<bool>* stop) {
  Frame frame;
  auto event = reader->Next(conn, kDistMagic, &frame, stop, /*tick_ms=*/50,
                            deadline_ms);
  if (!event.ok() || event.value() != FrameReader::Event::kFrame) {
    return event;
  }
  auto msg = ParseDistMsg(frame.payload);
  if (!msg.ok()) return msg.status();
  *out = msg.MoveValue();
  return event;
}

}  // namespace tcss
