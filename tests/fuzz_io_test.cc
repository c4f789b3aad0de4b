// Randomized corruption harness for every untrusted-input loader: the CSV
// dataset loader (strict and lenient), the TCSSv3 model parser, the
// TCKPv2 checkpoint parser, and the serving wire format (frame decoder +
// response-payload grammar). A deterministic Rng mutates, splices and
// truncates known-good bytes; every loader must hand back a Status (ok or
// not), never crash, never hang and never return half-validated data.
// tools/check.sh runs this binary under ASan/UBSan as well.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/codec.h"
#include "common/env.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/model_io.h"
#include "data/csv_io.h"
#include "dist/wire.h"
#include "serve/frontend.h"
#include "serve/request.h"
#include "stream/delta_buffer.h"

namespace tcss {
namespace {

// --- Known-good corpora -----------------------------------------------

const char kGoodPois[] =
    "poi_id,lat,lon,category\n"
    "0,40.5,-74.1,2\n"
    "1,40.6,-74.2,0\n"
    "2,-33.9,151.2,3\n"
    "3,48.8,2.35,1\n";

const char kGoodCheckins[] =
    "user_id,poi_id,unix_seconds\n"
    "0,0,1300000000\n"
    "0,2,1300100000\n"
    "1,1,1300200000\n"
    "2,3,1300300000\n"
    "2,0,1300400000\n";

const char kGoodFriends[] =
    "user_id,friend_id\n"
    "0,1\n"
    "1,2\n";

FactorModel SmallModel() {
  FactorModel m;
  m.u1 = Matrix(3, 2);
  m.u2 = Matrix(4, 2);
  m.u3 = Matrix(5, 2);
  for (size_t i = 0; i < m.u1.rows(); ++i)
    for (size_t t = 0; t < 2; ++t) m.u1(i, t) = 0.1 * double(i) + 0.01;
  for (size_t j = 0; j < m.u2.rows(); ++j)
    for (size_t t = 0; t < 2; ++t) m.u2(j, t) = 0.2 * double(j) - 0.5;
  for (size_t k = 0; k < m.u3.rows(); ++k)
    for (size_t t = 0; t < 2; ++t) m.u3(k, t) = 0.05 * double(k + t);
  m.h = {1.25, -0.75};
  return m;
}

// Saved TCSSv3 bytes (with CRC trailer) for SmallModel().
std::string GoodModelBytes() {
  const std::string path = ::testing::TempDir() + "/fuzz_good_model.txt";
  EXPECT_TRUE(SaveFactorModel(SmallModel(), path).ok());
  auto bytes = Env::Default()->ReadFileToString(path);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? bytes.value() : std::string();
}

std::string GoodCheckpointBytes() {
  TrainerCheckpoint ckpt;
  ckpt.model = SmallModel();
  ckpt.adam_m = FactorGrads(ckpt.model);
  ckpt.adam_v = FactorGrads(ckpt.model);
  ckpt.adam_m.Zero();
  ckpt.adam_v.Zero();
  ckpt.adam_t = 42;
  ckpt.epoch = 7;
  ckpt.hausdorff_rotation = 3;
  ckpt.lr_scale = 0.5;
  return SerializeCheckpoint(ckpt);
}

// --- Mutation engine ---------------------------------------------------

// Applies 1-4 random byte-level mutations: flip, insert, delete, truncate,
// chunk duplication, or a splice of random bytes. Deterministic in `rng`.
std::string Mutate(const std::string& good, Rng* rng) {
  std::string s = good;
  const int n_mutations = 1 + int(rng->UniformInt(4));
  for (int m = 0; m < n_mutations && !s.empty(); ++m) {
    switch (rng->UniformInt(6)) {
      case 0: {  // flip one byte to an arbitrary value
        s[rng->UniformInt(s.size())] = char(rng->UniformInt(256));
        break;
      }
      case 1: {  // insert a random byte
        s.insert(s.begin() + long(rng->UniformInt(s.size() + 1)),
                 char(rng->UniformInt(256)));
        break;
      }
      case 2: {  // delete one byte
        s.erase(s.begin() + long(rng->UniformInt(s.size())));
        break;
      }
      case 3: {  // truncate (torn write)
        s.resize(rng->UniformInt(s.size() + 1));
        break;
      }
      case 4: {  // duplicate a chunk somewhere else
        const size_t from = rng->UniformInt(s.size());
        const size_t len = 1 + rng->UniformInt(std::min<size_t>(64, s.size() - from));
        const std::string chunk = s.substr(from, len);
        s.insert(rng->UniformInt(s.size() + 1), chunk);
        break;
      }
      default: {  // splice random bytes over a region
        const size_t at = rng->UniformInt(s.size());
        const size_t len =
            std::min<size_t>(1 + rng->UniformInt(16), s.size() - at);
        for (size_t i = 0; i < len; ++i)
          s[at + i] = char(rng->UniformInt(256));
        break;
      }
    }
  }
  return s;
}

// --- CSV loader fuzz ---------------------------------------------------

class CsvFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/tcss_fuzz_csv";
    ASSERT_TRUE(Env::Default()->CreateDirs(dir_).ok());
  }

  void WriteDataset(const std::string& pois, const std::string& checkins,
                    const std::string& friends) {
    Env* env = Env::Default();
    ASSERT_TRUE(AtomicWriteFile(env, dir_ + "/pois.csv", pois).ok());
    ASSERT_TRUE(AtomicWriteFile(env, dir_ + "/checkins.csv", checkins).ok());
    ASSERT_TRUE(AtomicWriteFile(env, dir_ + "/friends.csv", friends).ok());
    // A stale quarantine file from a previous iteration must not leak
    // into this one's report.
    (void)env->DeleteFile(dir_ + "/quarantine.csv");
  }

  // Loads in both modes; the only contract is "returns, with a Status".
  void LoadBothModes() {
    auto strict = LoadDatasetCsv(dir_);
    (void)strict.ok();
    CsvLoadOptions lenient;
    lenient.mode = CsvLoadMode::kLenient;
    lenient.max_bad_rows = 1000;
    LoadReport report;
    auto loose = LoadDatasetCsv(dir_, lenient, &report);
    if (loose.ok()) {
      // Whatever survived must be internally consistent: every check-in
      // refers to a loaded POI and a real user.
      const Dataset& d = loose.value();
      for (const auto& e : d.checkins()) {
        ASSERT_LT(e.poi, d.num_pois());
        ASSERT_LT(e.user, d.num_users());
      }
    }
  }

  std::string dir_;
};

TEST_F(CsvFuzz, MutatedCsvFilesNeverCrashLoaders) {
  Rng rng(0xc0ffee);
  const std::string good[3] = {kGoodPois, kGoodCheckins, kGoodFriends};
  for (int iter = 0; iter < 150; ++iter) {
    std::string files[3] = {good[0], good[1], good[2]};
    // Mutate one, sometimes two of the files.
    files[rng.UniformInt(3)] = Mutate(files[rng.UniformInt(3)], &rng);
    if (rng.Bernoulli(0.3))
      files[rng.UniformInt(3)] = Mutate(files[rng.UniformInt(3)], &rng);
    WriteDataset(files[0], files[1], files[2]);
    LoadBothModes();
  }
}

TEST_F(CsvFuzz, TruncatedCsvFilesNeverCrashLoaders) {
  const std::string good[3] = {kGoodPois, kGoodCheckins, kGoodFriends};
  for (int which = 0; which < 3; ++which) {
    for (size_t n = 0; n <= good[which].size(); ++n) {
      std::string files[3] = {good[0], good[1], good[2]};
      files[which] = good[which].substr(0, n);
      WriteDataset(files[0], files[1], files[2]);
      LoadBothModes();
    }
  }
}

// --- Model / checkpoint parser fuzz ------------------------------------

// Mutates the signed part of a model or checkpoint file, then re-signs
// the mutant with a fresh CRC trailer: the integrity check passes, so the
// header-bounds, exact-size and finite checks behind it face the damage.
std::string MutateAndResign(const std::string& good, Rng* rng) {
  std::string bad = Mutate(good.substr(0, good.size() - 4), rng);
  PutCrc32Trailer(&bad);
  return bad;
}

// The signed formats are canonical (fixed-width fields, an exact size,
// no padding), so a mutant that parses must re-serialize to itself: it is
// a well-formed file, not a half-validated one.
TEST(ModelFuzz, ResignedMutantsAreRejectedOrCanonical) {
  const std::string good = GoodModelBytes();
  ASSERT_FALSE(good.empty());
  ASSERT_TRUE(ParseFactorModelBytes(good).ok());
  Rng rng(0xfacade);
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const std::string bad = MutateAndResign(good, &rng);
    auto r = ParseFactorModelBytes(bad);
    if (r.ok()) {
      EXPECT_EQ(SerializeFactorModel(r.value()), bad) << "iteration " << iter;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 1000);  // most mutants break the structure
}

TEST(ModelFuzz, EveryModelPrefixIsRejected) {
  const std::string good = GoodModelBytes();
  ASSERT_FALSE(good.empty());
  for (size_t n = 0; n < good.size(); ++n) {
    auto r = ParseFactorModelBytes(good.substr(0, n));
    EXPECT_FALSE(r.ok()) << "prefix of length " << n << " parsed";
  }
}

// A hostile all-ones word re-signed over every header position (dims
// included) is rejected by the bounds or the exact-size check before any
// allocation; ASan/UBSan in tools/check.sh would catch a huge resize.
TEST(ModelFuzz, ResignedHostileHeaderWordsAreRejected) {
  const std::string good = GoodModelBytes();
  const std::string body = good.substr(0, good.size() - 4);
  for (size_t pos = 8; pos + 8 <= 40; ++pos) {
    std::string bad = body;
    bad.replace(pos, 8, 8, '\xff');
    PutCrc32Trailer(&bad);
    EXPECT_FALSE(ParseFactorModelBytes(bad).ok()) << "word at " << pos;
  }
}

TEST(CheckpointFuzz, ResignedMutantsAreRejectedOrCanonical) {
  const std::string good = GoodCheckpointBytes();
  ASSERT_TRUE(ParseCheckpoint(good).ok());
  Rng rng(0xdecade);
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const std::string bad = MutateAndResign(good, &rng);
    auto r = ParseCheckpoint(bad);
    if (r.ok()) {
      EXPECT_EQ(SerializeCheckpoint(r.value()), bad) << "iteration " << iter;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 1000);
}

TEST(CheckpointFuzz, EveryCheckpointPrefixIsRejected) {
  const std::string good = GoodCheckpointBytes();
  for (size_t n = 0; n < good.size(); ++n) {
    auto r = ParseCheckpoint(good.substr(0, n));
    EXPECT_FALSE(r.ok()) << "prefix of length " << n << " parsed";
  }
}

TEST(CheckpointFuzz, ResignedHostileHeaderWordsAreRejected) {
  const std::string good = GoodCheckpointBytes();
  const std::string body = good.substr(0, good.size() - 4);
  // Header: magic, epoch, adam_t, rotation, lr_scale, sampler, I J K r.
  // Rotation and the sampler counter accept any value; the rest may not.
  for (size_t field : {1u, 2u, 4u, 6u, 7u, 8u, 9u}) {
    std::string bad = body;
    bad.replace(8 * field, 8, 8, '\xff');
    PutCrc32Trailer(&bad);
    EXPECT_FALSE(ParseCheckpoint(bad).ok()) << "field " << field;
  }
}

// --- Serving wire-format fuzz -------------------------------------------
//
// The frame decoder fronts a network socket, the least trusted input in
// the codebase. Contract under corruption: DecodeFrame returns exactly one
// of {frame, need-more-bytes, malformed} — it never crashes, never
// allocates from a corrupt length field, and never hands back a frame
// whose bytes differ from what was sent (CRC over id||payload).

Frame GoodWireFrame() {
  return Frame{0x0123456789abcdefULL, "topk 3 7 k=25 deadline_ms=4.5"};
}

TEST(WireFuzz, MutatedFramesNeverCrashDecoderOrForgeContent) {
  const Frame good = GoodWireFrame();
  const std::string bytes = EncodeRequestFrame(good);
  Rng rng(0x31f3);
  for (int iter = 0; iter < 400; ++iter) {
    const std::string bad = Mutate(bytes, &rng);
    Frame out;
    size_t consumed = 0;
    auto r = DecodeFrame(kRequestMagic, bad, &out, &consumed);
    if (r.ok() && r.value()) {
      // A decoded frame must be byte-identical to a frame that was
      // actually encoded: a mutation either leaves an intact frame at the
      // front (insert/delete past the end) or the CRC catches it.
      EXPECT_EQ(out.id, good.id);
      EXPECT_EQ(out.payload, good.payload);
      EXPECT_EQ(consumed, bytes.size());
    }
  }
}

// Deterministic single-byte-flip sweep: every xor of every byte must be
// detected (wrong magic, bad length, or CRC mismatch) — or, when it
// changes nothing semantically, decode to the identical frame. CRC-32
// guarantees detection of any single flipped byte within its span.
TEST(WireFuzz, EveryByteFlipIsDetected) {
  const Frame good = GoodWireFrame();
  const std::string bytes = EncodeRequestFrame(good);
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (unsigned char mask : {0x01, 0x80, 0xff}) {
      std::string bad = bytes;
      bad[pos] = static_cast<char>(bad[pos] ^ mask);
      Frame out;
      size_t consumed = 0;
      auto r = DecodeFrame(kRequestMagic, bad, &out, &consumed);
      EXPECT_FALSE(r.ok() && r.value())
          << "flip at " << pos << " mask " << int(mask)
          << " forged a frame";
    }
  }
}

// The geo-fenced request grammar over the wire: a valid within_km frame
// round-trips bit-exactly into a parsed fence, and the flip/truncate
// sweeps over that frame never forge one — a corrupted fence is rejected
// at the frame layer (CRC) or the parse layer, never served.
TEST(WireFuzz, GeoFencedFramesRoundTripAndCorruptionsNeverForge) {
  const Frame good{0xfeedULL, "topk 3 7 k=5 within_km=12.5,40.75,-74.0"};
  const std::string bytes = EncodeRequestFrame(good);

  Frame out;
  size_t consumed = 0;
  auto r = DecodeFrame(kRequestMagic, bytes, &out, &consumed);
  ASSERT_TRUE(r.ok() && r.value());
  ASSERT_EQ(consumed, bytes.size());
  auto req = ParseRequestLine(out.payload);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_DOUBLE_EQ(req.value().within_km, 12.5);
  EXPECT_DOUBLE_EQ(req.value().center.lat, 40.75);
  EXPECT_DOUBLE_EQ(req.value().center.lon, -74.0);

  // Single-byte flips: either the CRC rejects the frame, or (flips that
  // cancel out to the identical bytes aside) whatever decodes must parse
  // to the original fence — a *different* fence must never come through.
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (unsigned char mask : {0x01, 0x10, 0xff}) {
      std::string bad = bytes;
      bad[pos] = static_cast<char>(bad[pos] ^ mask);
      Frame decoded;
      size_t used = 0;
      auto res = DecodeFrame(kRequestMagic, bad, &decoded, &used);
      if (res.ok() && res.value()) {
        EXPECT_EQ(decoded.payload, good.payload)
            << "flip at " << pos << " forged a fence";
      }
    }
  }
  // Truncations: never a decodable frame, so never a half-parsed fence.
  for (size_t n = 0; n < bytes.size(); ++n) {
    Frame decoded;
    size_t used = 0;
    auto res = DecodeFrame(kRequestMagic, bytes.substr(0, n), &decoded,
                           &used);
    EXPECT_FALSE(res.ok() && res.value()) << "prefix " << n << " decoded";
  }
  // A frame that survives CRC but carries a mangled fence string dies at
  // the parser, not in the service.
  for (const char* payload :
       {"topk 3 7 within_km=12.5,40.75", "topk 3 7 within_km=12.5,95.0,0",
        "topk 3 7 within_km=-1,0,0", "topk 3 7 within_km=nan,0,0"}) {
    const std::string enc = EncodeRequestFrame(Frame{1, payload});
    Frame decoded;
    size_t used = 0;
    auto res = DecodeFrame(kRequestMagic, enc, &decoded, &used);
    ASSERT_TRUE(res.ok() && res.value());
    EXPECT_FALSE(ParseRequestLine(decoded.payload).ok()) << payload;
  }
}

// The streaming ingest verb over the wire (DESIGN.md §14): an ingest
// frame mutates serving state, so it is the most attack-worthy payload in
// the protocol. Contract: a valid frame round-trips bit-exactly into a
// parsed kIngest request; every single-byte flip is rejected (CRC) or
// decodes to the identical bytes; no truncation decodes; and a frame that
// survives CRC with a mangled ingest grammar dies in ParseRequestLine —
// the DeltaBuffer behind the verb only ever sees exactly-as-sent events.
TEST(WireFuzz, IngestFramesNeverForgeCheckIns) {
  const Frame good{0xbeefULL, "ingest 2 3 1300400000"};
  const std::string bytes = EncodeRequestFrame(good);

  Frame out;
  size_t consumed = 0;
  auto r = DecodeFrame(kRequestMagic, bytes, &out, &consumed);
  ASSERT_TRUE(r.ok() && r.value());
  auto req = ParseRequestLine(out.payload);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().verb, ServeVerb::kIngest);
  EXPECT_EQ(req.value().user, 2u);
  EXPECT_EQ(req.value().poi, 3u);
  EXPECT_EQ(req.value().timestamp, 1300400000);

  // Flip sweep: anything that decodes must be the original check-in.
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (unsigned char mask : {0x01, 0x10, 0xff}) {
      std::string bad = bytes;
      bad[pos] = static_cast<char>(bad[pos] ^ mask);
      Frame decoded;
      size_t used = 0;
      auto res = DecodeFrame(kRequestMagic, bad, &decoded, &used);
      if (res.ok() && res.value()) {
        EXPECT_EQ(decoded.payload, good.payload)
            << "flip at " << pos << " forged a check-in";
      }
    }
  }
  // Truncation sweep: a torn ingest frame never decodes.
  for (size_t n = 0; n < bytes.size(); ++n) {
    Frame decoded;
    size_t used = 0;
    auto res =
        DecodeFrame(kRequestMagic, bytes.substr(0, n), &decoded, &used);
    EXPECT_FALSE(res.ok() && res.value()) << "prefix " << n << " decoded";
  }
  // CRC-clean frames with a mangled grammar: rejected at the parse layer
  // (exact integer parses, calendar bounds, no trailing junk) — these
  // never reach the engine at all.
  for (const char* payload :
       {"ingest", "ingest 2", "ingest 2 3", "ingest 2 3 1.5e9",
        "ingest -1 3 1300400000", "ingest 2 3 1300400000 extra",
        "ingest 2 3 99999999999999999999", "ingest 2 3 253402300800",
        "ingest 2 3 -62135596801", "ingest x 3 1300400000",
        "ingest 2 3 0x4dcd8500"}) {
    const std::string enc = EncodeRequestFrame(Frame{1, payload});
    Frame decoded;
    size_t used = 0;
    auto res = DecodeFrame(kRequestMagic, enc, &decoded, &used);
    ASSERT_TRUE(res.ok() && res.value());
    EXPECT_FALSE(ParseRequestLine(decoded.payload).ok()) << payload;
  }
}

// End-to-end mutation sweep into the delta buffer: run the full untrusted
// pipeline (decode -> parse -> validate -> append) over hundreds of
// mutated ingest frames. Every event that lands in the buffer must be
// byte-identical to the one that was sent — corruption is swallowed by
// one of the three layers, never stored.
TEST(WireFuzz, MutatedIngestFramesNeverReachTheDeltaBuffer) {
  const Frame good{0x5151ULL, "ingest 2 3 1300400000"};
  const std::string bytes = EncodeRequestFrame(good);
  DeltaBuffer delta(4, 5);  // user 2 / poi 3 are in range
  uint64_t intact_deliveries = 0;
  Rng rng(0xd317a);
  for (int iter = 0; iter < 600; ++iter) {
    const std::string bad = Mutate(bytes, &rng);
    Frame decoded;
    size_t used = 0;
    auto res = DecodeFrame(kRequestMagic, bad, &decoded, &used);
    if (!res.ok() || !res.value()) continue;  // frame layer caught it
    auto parsed = ParseRequestLine(decoded.payload);
    if (!parsed.ok() || parsed.value().verb != ServeVerb::kIngest) {
      continue;  // parse layer caught it
    }
    const ServeRequest& q = parsed.value();
    if (delta.Append(q.user, q.poi, q.timestamp).ok()) {
      // Stored: must be exactly the check-in that was sent.
      EXPECT_EQ(q.user, 2u);
      EXPECT_EQ(q.poi, 3u);
      EXPECT_EQ(q.timestamp, 1300400000);
      ++intact_deliveries;
    }
  }
  // Every stored event is the original one.
  for (const CheckInEvent& e : delta.Snapshot()) {
    EXPECT_EQ(e.user, 2u);
    EXPECT_EQ(e.poi, 3u);
    EXPECT_EQ(e.timestamp, 1300400000);
  }
  EXPECT_EQ(delta.accepted(), intact_deliveries);
  // Some mutations must leave the frame intact (insert/delete past the
  // end), or the sweep is not exercising the accept path at all.
  EXPECT_GT(intact_deliveries, 0u);
}

// Truncation sweep (torn frame at every byte): a prefix is either "need
// more bytes" (consistent so far) or malformed — never a whole frame.
TEST(WireFuzz, EveryTruncatedFrameNeedsMoreOrRejects) {
  const std::string bytes = EncodeRequestFrame(GoodWireFrame());
  for (size_t n = 0; n < bytes.size(); ++n) {
    Frame out;
    size_t consumed = 0;
    auto r = DecodeFrame(kRequestMagic, bytes.substr(0, n), &out, &consumed);
    if (r.ok()) {
      EXPECT_FALSE(r.value()) << "prefix of length " << n << " decoded";
    }
  }
  // And with garbage appended after the cut, the decoder still never
  // yields a frame (the CRC spans the whole payload).
  for (size_t n = kFrameHeaderSize; n < bytes.size(); ++n) {
    Frame out;
    size_t consumed = 0;
    const std::string torn =
        bytes.substr(0, n) + std::string(bytes.size() - n, '\xee');
    auto r = DecodeFrame(kRequestMagic, torn, &out, &consumed);
    EXPECT_FALSE(r.ok() && r.value())
        << "torn-at-" << n << " frame decoded";
  }
}

// A hostile length field must be rejected before any allocation.
TEST(WireFuzz, AbsurdLengthFieldRejectedWithoutAllocation) {
  std::string bytes = EncodeRequestFrame(GoodWireFrame());
  for (uint32_t hostile : {(uint32_t{1} << 20) + 1, uint32_t{1} << 24,
                           uint32_t{0xffffffff}}) {
    for (int b = 0; b < 4; ++b) {
      bytes[12 + b] = static_cast<char>(hostile >> (8 * b));
    }
    Frame out;
    size_t consumed = 0;
    auto r = DecodeFrame(kRequestMagic, bytes, &out, &consumed);
    EXPECT_FALSE(r.ok()) << "length " << hostile << " accepted";
  }
}

// When the 16-byte header is intact and only the length/payload/CRC is
// bad, the decoder must surface the header's id so the server's error
// response can echo it — a pipelined client correlates the failure with
// the request that caused it instead of seeing id=0.
TEST(WireFuzz, BadCrcAndBadLengthSurfaceHeaderId) {
  const Frame good = GoodWireFrame();
  const std::string bytes = EncodeRequestFrame(good);
  {
    std::string bad = bytes;
    bad.back() = static_cast<char>(bad.back() ^ 0x5a);  // corrupt the CRC
    Frame out;
    size_t consumed = 0;
    auto r = DecodeFrame(kRequestMagic, bad, &out, &consumed);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(out.id, good.id);
  }
  {
    std::string bad = bytes;
    const uint32_t hostile = (uint32_t{1} << 20) + 1;
    for (int b = 0; b < 4; ++b) {
      bad[12 + b] = static_cast<char>(hostile >> (8 * b));
    }
    Frame out;
    size_t consumed = 0;
    auto r = DecodeFrame(kRequestMagic, bad, &out, &consumed);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(out.id, good.id);
  }
}

// The server must never emit a response frame its own protocol rejects:
// worst-case recs (maximum k, widest numeric text) still encode to a
// payload within kMaxFramePayload by truncating the lowest-ranked tail,
// and the result round-trips through the client-side decoder and parser.
TEST(WireFuzz, OversizedOkResponseTruncatesToFitFrameCap) {
  WireResponse resp;
  resp.kind = WireResponse::Kind::kOk;
  resp.tier = ServeTier::kModel;
  resp.latency_ms = 1.0;
  resp.recs.reserve(kMaxRequestK);
  for (size_t i = 0; i < kMaxRequestK; ++i) {
    resp.recs.push_back({static_cast<uint32_t>(4000000000u - i),
                         -1.2345678901234567e-308});
  }
  const std::string payload = EncodeResponsePayload(resp);
  EXPECT_LE(payload.size(), kMaxFramePayload);
  const std::string frame = EncodeResponseFrame({7, payload});
  Frame out;
  size_t consumed = 0;
  auto r = DecodeFrame(kResponseMagic, frame, &out, &consumed);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value());
  EXPECT_EQ(consumed, frame.size());
  auto parsed = ParseResponsePayload(out.payload);
  ASSERT_TRUE(parsed.ok());
  // Truncation keeps a non-empty ranked prefix.
  ASSERT_GT(parsed.value().recs.size(), 0u);
  EXPECT_LT(parsed.value().recs.size(), resp.recs.size());
  EXPECT_EQ(parsed.value().recs[0].poi, resp.recs[0].poi);
}

TEST(WireFuzz, MutatedResponsePayloadsNeverCrashParser) {
  WireResponse resp;
  resp.kind = WireResponse::Kind::kOk;
  resp.tier = ServeTier::kModel;
  resp.latency_ms = 1.25;
  resp.recs = {{4, 2.5}, {1, 1.75}, {0, 0.5}};
  const std::string good = EncodeResponsePayload(resp);
  auto round = ParseResponsePayload(good);
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round.value().recs.size(), 3u);
  Rng rng(0xf4a3);
  for (int iter = 0; iter < 400; ++iter) {
    const std::string bad = Mutate(good, &rng);
    auto r = ParseResponsePayload(bad);
    if (r.ok()) {
      // If it still parses, it must be structurally sound and bounded.
      EXPECT_LE(r.value().recs.size(), kMaxRequestK);
    }
  }
}

// --- distributed-training wire messages (src/dist/wire.h) ---------------
//
// The coordinator/worker protocol travels over the same CRC32 frame codec
// swept above, so a corrupted *frame* is already covered; these sweeps
// attack the layer underneath — the strict binary payload parser — with
// one representative message per DistMsgType.

std::vector<DistMsg> DistCorpus() {
  std::vector<DistMsg> corpus;
  {
    DistMsg m;
    m.type = DistMsgType::kHello;
    m.gen = 2;
    m.rank = 3;
    m.num_workers = 4;
    m.fingerprint = 0x0123456789abcdefull;
    m.ckpt_epochs = {10, 20, 30};
    corpus.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kStart;
    m.gen = 2;
    m.epoch = 20;
    corpus.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kGrad;
    m.gen = 2;
    m.epoch = 21;
    m.loss = 3.5;
    m.grad_maxabs = 0.125;
    m.lr_scale = 0.5;
    m.u2 = {1.0, 2.0};
    m.u3 = {-1.0};
    m.h = {0.25, -0.25};
    m.u3_replica = {7.0};
    corpus.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kReduced;
    m.gen = 2;
    m.epoch = 21;
    m.action = kActionStep;
    m.flags = kFlagCheckpoint;
    m.lr = 0.05;
    m.lr_scale = 0.5;
    m.u2 = {0.5};
    m.u3 = {1.5};
    m.h = {2.5};
    corpus.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kHeartbeat;
    m.gen = 2;
    corpus.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kCkptAck;
    m.gen = 2;
    m.epoch = 20;
    corpus.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kFinal;
    m.gen = 2;
    m.epoch = 40;
    m.u1 = {1.0, 2.0, 3.0, 4.0};
    m.u2 = {5.0};
    m.u3 = {6.0};
    m.h = {7.0};
    corpus.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kShutdown;
    m.gen = 2;
    corpus.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kReport;
    m.gen = 3;
    corpus.push_back(m);
  }
  {
    DistMsg m;
    m.type = DistMsgType::kAbort;
    m.gen = 3;
    m.text = "diverged past the retry budget";
    corpus.push_back(m);
  }
  return corpus;
}

// The payload encoding is canonical (fixed-width little-endian fields,
// length-prefixed arrays, trailing bytes rejected), so parse followed by
// re-encode must reproduce the input byte-for-byte. Any accepted mutation
// therefore IS a well-formed message — nothing half-parsed can leak into
// the training state machine.
TEST(DistWireFuzz, EveryByteFlipIsRejectedOrParsesCanonically) {
  for (const DistMsg& m : DistCorpus()) {
    const std::string good = EncodeDistMsg(m);
    for (size_t pos = 0; pos < good.size(); ++pos) {
      for (unsigned char mask : {0x01, 0x80, 0xff}) {
        std::string bad = good;
        bad[pos] = static_cast<char>(bad[pos] ^ mask);
        auto r = ParseDistMsg(bad);
        if (r.ok()) {
          EXPECT_EQ(EncodeDistMsg(r.value()), bad)
              << DistMsgTypeName(m.type) << " flip at " << pos << " mask "
              << int(mask) << " parsed non-canonically";
        }
      }
    }
  }
}

TEST(DistWireFuzz, EveryTruncationIsRejected) {
  for (const DistMsg& m : DistCorpus()) {
    const std::string good = EncodeDistMsg(m);
    for (size_t n = 0; n < good.size(); ++n) {
      EXPECT_FALSE(ParseDistMsg(std::string_view(good.data(), n)).ok())
          << DistMsgTypeName(m.type) << " prefix " << n << " parsed";
    }
    EXPECT_FALSE(ParseDistMsg(good + '\0').ok())
        << DistMsgTypeName(m.type) << " accepted a trailing byte";
  }
}

TEST(DistWireFuzz, MutatedPayloadsNeverCrashStrictParse) {
  Rng rng(0xd157);
  for (const DistMsg& m : DistCorpus()) {
    const std::string good = EncodeDistMsg(m);
    ASSERT_TRUE(ParseDistMsg(good).ok()) << DistMsgTypeName(m.type);
    for (int iter = 0; iter < 200; ++iter) {
      const std::string bad = Mutate(good, &rng);
      auto r = ParseDistMsg(bad);
      if (r.ok()) {
        // Canonicality again: accepted bytes are a real message.
        EXPECT_EQ(EncodeDistMsg(r.value()), bad);
      }
    }
  }
}

// Hostile array counts (the gradient/final messages carry
// length-prefixed double arrays) must be rejected before any allocation:
// the parser checks the count against the bytes actually present.
TEST(DistWireFuzz, AbsurdArrayCountsRejectedWithoutAllocation) {
  DistMsg grad;
  grad.type = DistMsgType::kGrad;
  grad.u2 = {1.0};
  const std::string good = EncodeDistMsg(grad);
  // Sweep a hostile 0xffffffff over every aligned u32 position; at least
  // the array-count fields are hit, and nothing may crash or allocate.
  for (size_t pos = 0; pos + 4 <= good.size(); ++pos) {
    std::string bad = good;
    bad[pos] = '\xff';
    bad[pos + 1] = '\xff';
    bad[pos + 2] = '\xff';
    bad[pos + 3] = '\xff';
    auto r = ParseDistMsg(bad);
    if (r.ok()) {
      EXPECT_EQ(EncodeDistMsg(r.value()), bad);
    }
  }
}

// End-to-end: a dist message inside its CRC32 frame. Every single-byte
// flip of the full on-wire bytes must be caught by the frame layer (magic
// mismatch, hostile length, or CRC) — the strict payload parser is the
// second line of defense, not the first.
TEST(DistWireFuzz, FramedMessageByteFlipsNeverForgeAFrame) {
  DistMsg m = DistCorpus()[2];  // kGrad, the richest payload
  Frame f;
  f.id = 7;
  f.payload = EncodeDistMsg(m);
  const std::string wire = EncodeFrame(kDistMagic, f);
  for (size_t pos = 0; pos < wire.size(); ++pos) {
    std::string bad = wire;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    Frame out;
    size_t consumed = 0;
    auto r = DecodeFrame(kDistMagic, bad, &out, &consumed);
    EXPECT_FALSE(r.ok() && r.value())
        << "flip at " << pos << " forged a framed dist message";
  }
}

}  // namespace
}  // namespace tcss
