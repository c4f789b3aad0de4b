// Corruption and crash-safety coverage for the binary TCSSv3 model
// format: truncation, bit flips, bad magic, implausible dims, a size that
// disagrees with the header, non-finite payloads, and fault-injected
// saves must all surface as a non-OK Status (never a crash) and must
// never leave a torn file behind. The structural cases carry a valid CRC,
// so they reach the checks behind it.
#include <gtest/gtest.h>

#include <cfloat>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/env.h"
#include "common/fault_env.h"
#include "common/rng.h"
#include "core/model_io.h"

namespace tcss {
namespace {

FactorModel RandomModel(size_t I, size_t J, size_t K, size_t r,
                        uint64_t seed) {
  Rng rng(seed);
  FactorModel m;
  m.u1 = Matrix::GaussianRandom(I, r, &rng, 0.5);
  m.u2 = Matrix::GaussianRandom(J, r, &rng, 0.5);
  m.u3 = Matrix::GaussianRandom(K, r, &rng, 0.5);
  m.h.resize(r);
  for (auto& h : m.h) h = rng.Gaussian();
  return m;
}

bool SameModel(const FactorModel& a, const FactorModel& b) {
  if (a.rank() != b.rank()) return false;
  for (size_t t = 0; t < a.rank(); ++t) {
    if (a.h[t] != b.h[t]) return false;
  }
  return MaxAbsDiff(a.u1, b.u1) == 0.0 && MaxAbsDiff(a.u2, b.u2) == 0.0 &&
         MaxAbsDiff(a.u3, b.u3) == 0.0;
}

Status WriteRaw(const std::string& path, const std::string& contents) {
  auto f = Env::Default()->NewWritableFile(path);
  if (!f.ok()) return f.status();
  TCSS_RETURN_IF_ERROR(f.value()->Append(contents));
  return f.value()->Close();
}

bool SameBits(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool BitwiseSameModel(const FactorModel& a, const FactorModel& b) {
  return a.h.size() == b.h.size() && a.u1.size() == b.u1.size() &&
         a.u2.size() == b.u2.size() && a.u3.size() == b.u3.size() &&
         SameBits(a.h.data(), b.h.data(), a.h.size()) &&
         SameBits(a.u1.data(), b.u1.data(), a.u1.size()) &&
         SameBits(a.u2.data(), b.u2.data(), a.u2.size()) &&
         SameBits(a.u3.data(), b.u3.data(), a.u3.size());
}

// A TCSSv3 file with the given header and (I + J + K + 1) * r payload
// doubles, or whatever `values` holds, signed with a valid CRC so that
// parsing gets past the integrity check to the structural ones.
std::string SignedModelFile(uint64_t I, uint64_t J, uint64_t K, uint64_t r,
                            const std::vector<double>& values,
                            std::string_view magic = {"TCSSv3\0\0", 8}) {
  std::string s(magic);
  PutU64(I, &s);
  PutU64(J, &s);
  PutU64(K, &s);
  PutU64(r, &s);
  PutF64s(values.data(), values.size(), &s);
  PutCrc32Trailer(&s);
  return s;
}

std::string StatusMessage(std::string_view bytes) {
  auto parsed = ParseFactorModelBytes(bytes);
  return parsed.ok() ? std::string("parsed") : parsed.status().message();
}

TEST(ModelIoCorruptionTest, TruncatedAtEveryPrefixIsRejected) {
  const FactorModel m = RandomModel(4, 3, 5, 2, 9);
  const std::string path = ::testing::TempDir() + "/trunc_model.tcss";
  ASSERT_TRUE(SaveFactorModel(m, path).ok());
  auto contents = Env::Default()->ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  const std::string& full = contents.value();
  for (size_t n = 0; n < full.size(); ++n) {
    ASSERT_TRUE(WriteRaw(path, full.substr(0, n)).ok());
    auto loaded = LoadFactorModel(path);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << n << " bytes parsed";
  }
  ASSERT_TRUE(WriteRaw(path, full).ok());
  EXPECT_TRUE(LoadFactorModel(path).ok());
}

TEST(ModelIoCorruptionTest, EveryFlippedByteIsRejected) {
  const std::string good = SerializeFactorModel(RandomModel(3, 3, 3, 2, 11));
  ASSERT_TRUE(ParseFactorModelBytes(good).ok());
  for (size_t pos = 0; pos < good.size(); ++pos) {
    for (unsigned char mask : {0x01, 0x80, 0xff}) {
      std::string bad = good;
      bad[pos] = static_cast<char>(bad[pos] ^ mask);
      EXPECT_FALSE(ParseFactorModelBytes(bad).ok())
          << "flip at " << pos << " mask " << int(mask) << " parsed";
    }
  }
}

TEST(ModelIoCorruptionTest, RejectsBadMagic) {
  const std::string bad =
      SignedModelFile(1, 1, 1, 1, {1.0, 1.0, 1.0, 1.0}, {"TCSSv9\0\0", 8});
  EXPECT_NE(StatusMessage(bad).find("magic"), std::string::npos)
      << StatusMessage(bad);
}

TEST(ModelIoCorruptionTest, RejectsTextModelsFromBeforeTCSSv3) {
  // Byte for byte what SaveFactorModel wrote before the binary format: a
  // TCSSv2 hex-float file with its text CRC footer. It fails on its magic.
  const std::string text =
      "TCSSv2\n2 3 2 1\n0x1p+1\n0x1p-1\n-0x1p+0\n0x1p+0\n0x1p+1\n0x1p-2\n"
      "0x1.8p+0\n-0x1.8p-1\nCRC32 d54e7688\n";
  EXPECT_NE(StatusMessage(text).find("bad magic"), std::string::npos)
      << StatusMessage(text);
}

TEST(ModelIoCorruptionTest, RejectsImplausibleDims) {
  // A corrupt header must not trigger a huge allocation: dims far beyond
  // kMaxModelDim / kMaxModelRank are rejected before any resize.
  const uint64_t dims[][4] = {
      {99999999999999ull, 3, 3, 2},  // I overflow-scale
      {3, 99999999, 3, 2},           // J > kMaxModelDim
      {3, 3, 99999999, 2},           // K > kMaxModelDim
      {3, 3, 3, 5000},               // r > kMaxModelRank
      {~0ull, ~0ull, ~0ull, ~0ull},  // every field at its maximum
      {0, 3, 3, 2},                  // zero dim
      {3, 3, 3, 0},                  // zero rank
  };
  for (const auto& d : dims) {
    const std::string bad = SignedModelFile(d[0], d[1], d[2], d[3], {});
    EXPECT_NE(StatusMessage(bad).find("implausible"), std::string::npos)
        << d[0] << " " << d[1] << " " << d[2] << " " << d[3] << ": "
        << StatusMessage(bad);
  }
}

TEST(ModelIoCorruptionTest, RejectsPayloadThatDisagreesWithTheHeader) {
  // Exactly (I + J + K + 1) * r doubles must follow the header.
  const std::vector<double> twelve(12, 0.5);
  // Dims that imply more bytes than the file holds.
  EXPECT_NE(StatusMessage(SignedModelFile(3, 3, 3, 2, twelve))
                .find("truncated"),
            std::string::npos);
  EXPECT_NE(StatusMessage(SignedModelFile(3, 4, 5, 1, twelve))
                .find("truncated"),
            std::string::npos);
  // Dims that imply fewer.
  EXPECT_NE(StatusMessage(SignedModelFile(2, 2, 2, 1, twelve))
                .find("trailing"),
            std::string::npos);
  EXPECT_NE(StatusMessage(SignedModelFile(1, 1, 1, 1, twelve))
                .find("trailing"),
            std::string::npos);
  // And the dims that fit: 4 + 5 + 2 + 1 = 12.
  EXPECT_EQ(StatusMessage(SignedModelFile(4, 5, 2, 1, twelve)), "parsed");
}

TEST(ModelIoCorruptionTest, RejectsOneExtraByte) {
  std::string bytes = SerializeFactorModel(RandomModel(2, 2, 2, 2, 3));
  bytes.resize(bytes.size() - 4);  // drop the CRC, append a byte, re-sign
  bytes.push_back('\0');
  PutCrc32Trailer(&bytes);
  EXPECT_NE(StatusMessage(bytes).find("trailing"), std::string::npos)
      << StatusMessage(bytes);
}

TEST(ModelIoCorruptionTest, RejectsNonFiniteEntryInEveryBlock) {
  // 2 users, 3 POIs, 2 bins, rank 1: h is entry 0, U1 entries 1-2, U2
  // entries 3-5 and U3 entries 6-7.
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (size_t entry : {0u, 1u, 2u, 4u, 5u, 7u}) {
    for (double v : bad_values) {
      std::vector<double> values(8, 0.25);
      values[entry] = v;
      const std::string bad = SignedModelFile(2, 3, 2, 1, values);
      EXPECT_NE(StatusMessage(bad).find("non-finite"), std::string::npos)
          << "entry " << entry << " = " << v << ": " << StatusMessage(bad);
    }
  }
}

TEST(ModelIoTest, SaveLoadIsBitwiseForSignedZerosSubnormalsAndExtremes) {
  FactorModel m = RandomModel(3, 4, 2, 3, 21);
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             DBL_MIN / 3.0,
                             DBL_MAX,
                             -DBL_MAX,
                             DBL_MIN};
  size_t s = 0;
  for (Matrix* f : {&m.u1, &m.u2, &m.u3}) {
    for (size_t i = 0; i < f->size(); ++i) {
      f->data()[i] = specials[s++ % std::size(specials)];
    }
  }
  m.h = {-0.0, std::numeric_limits<double>::denorm_min(), -DBL_MAX};
  const std::string path = ::testing::TempDir() + "/special_model.tcss";
  ASSERT_TRUE(SaveFactorModel(m, path).ok());
  auto loaded = LoadFactorModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(BitwiseSameModel(m, loaded.value()));
  EXPECT_EQ(SerializeFactorModel(loaded.value()), SerializeFactorModel(m));
}

TEST(ModelIoFaultInjectionTest, SaveIsAtomicUnderEveryFailurePoint) {
  const FactorModel old_model = RandomModel(4, 3, 5, 2, 1);
  const FactorModel new_model = RandomModel(4, 3, 5, 2, 2);
  const std::string path = ::testing::TempDir() + "/atomic_model.tcss";

  // Learn the op count of a clean save.
  FaultInjectionEnv probe(Env::Default());
  ASSERT_TRUE(SaveFactorModel(new_model, path, &probe).ok());
  const int total_ops = probe.ops_attempted();
  ASSERT_GT(total_ops, 2);

  for (int k = 0; k <= total_ops; ++k) {
    // Start each round from a valid old file.
    ASSERT_TRUE(SaveFactorModel(old_model, path).ok());
    FaultInjectionEnv env(Env::Default());
    env.set_fail_after(k);
    env.set_truncate_on_failure(true);
    const Status st = SaveFactorModel(new_model, path, &env);
    auto loaded = LoadFactorModel(path);
    ASSERT_TRUE(loaded.ok())
        << "crash at op " << k << " tore the file: "
        << loaded.status().ToString();
    const bool is_old = SameModel(loaded.value(), old_model);
    const bool is_new = SameModel(loaded.value(), new_model);
    EXPECT_TRUE(is_old || is_new) << "crash at op " << k;
    if (st.ok()) {
      EXPECT_TRUE(is_new) << "successful save at op " << k
                          << " must yield the new model";
    } else {
      EXPECT_TRUE(is_old) << "failed save at op " << k
                          << " must leave the old model";
    }
  }
}

}  // namespace
}  // namespace tcss
