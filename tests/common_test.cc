#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/crc32.h"
#include "common/env.h"
#include "common/fault_env.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace tcss {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad rank");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad rank");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad rank");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotConverged("x").code(), StatusCode::kNotConverged);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveValueTransfersOwnership) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = r.MoveValue();
  EXPECT_EQ(v.size(), 3u);
}

Status Helper(bool fail) {
  TCSS_RETURN_IF_ERROR(fail ? Status::Internal("inner") : Status::OK());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(Helper(false).ok());
  EXPECT_EQ(Helper(true).code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double mean = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    mean += u;
  }
  mean /= 10000.0;
  EXPECT_NEAR(mean, 0.5, 0.02);
}

TEST(RngTest, UniformIntIsInRangeAndRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.UniformInt(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

// UniformInt tests r >= n before it computes the rejection threshold
// 2^64 mod n (which is below n): its draws, its Next() calls and its
// outputs must be those of the two-division formula for every n. At
// n = 2^63 + 1 about half the draws are rejected, so both branches run.
TEST(RngTest, UniformIntMatchesTheTwoDivisionFormula) {
  const uint64_t ns[] = {1,
                         2,
                         3,
                         250,
                         10000,
                         (uint64_t{1} << 32) + 1,
                         uint64_t{1} << 63,
                         (uint64_t{1} << 63) + 1,
                         ~uint64_t{0}};
  for (const uint64_t n : ns) {
    for (const uint64_t seed : {5u, 6u, 7u}) {
      Rng rng(seed);
      Rng formula(seed);
      size_t rejected = 0;
      for (int draw = 0; draw < 2000; ++draw) {
        const uint64_t threshold = (0 - n) % n;
        uint64_t r = formula.Next();
        for (; r < threshold; r = formula.Next()) ++rejected;
        ASSERT_EQ(rng.UniformInt(n), r % n) << "n " << n << " draw " << draw;
      }
      EXPECT_EQ(rng.Next(), formula.Next()) << "n " << n;
      if (n == (uint64_t{1} << 63) + 1) {
        EXPECT_GT(rejected, 500u);
      }
    }
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double mean = 0.0, var = 0.0;
  const int n = 20000;
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.Gaussian();
  for (double x : xs) mean += x;
  mean /= n;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= n;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(19);
  std::vector<double> w = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_NEAR(counts[0] / 10000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 10000.0, 0.3, 0.03);
  EXPECT_NEAR(counts[2] / 10000.0, 0.6, 0.03);
}

TEST(RngTest, CategoricalZeroWeightsReturnsZero) {
  Rng rng(23);
  EXPECT_EQ(rng.Categorical({0.0, 0.0}), 0u);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(29);
  for (size_t k : {0u, 1u, 5u, 50u, 100u}) {
    auto s = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(s.size(), k);
    std::set<size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), k);
    for (size_t v : s) EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble(" -1e-3 ", &v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringsTest, ParseIndex) {
  size_t v = 0;
  EXPECT_TRUE(ParseIndex("042", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_FALSE(ParseIndex("-3", &v));
  EXPECT_FALSE(ParseIndex("3.5", &v));
  EXPECT_FALSE(ParseIndex("", &v));
}

TEST(StringsTest, ParseInt64AcceptsFullRange) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseInt64("-0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseInt64("1300000000", &v));
  EXPECT_EQ(v, 1300000000);
  EXPECT_TRUE(ParseInt64("-62135596800", &v));
  EXPECT_EQ(v, -62135596800);
  EXPECT_TRUE(ParseInt64("9223372036854775807", &v));
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &v));
  EXPECT_EQ(v, INT64_MIN);
}

TEST(StringsTest, ParseInt64RejectsNonIntegersAndOverflow) {
  int64_t v = 0;
  // Floats must be rejected, not truncated: a "1.5e9" timestamp silently
  // becoming 1 would corrupt every time bin derived from it.
  EXPECT_FALSE(ParseInt64("1.5e9", &v));
  EXPECT_FALSE(ParseInt64("3.0", &v));
  EXPECT_FALSE(ParseInt64("1e3", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("-", &v));
  EXPECT_FALSE(ParseInt64("+5", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("nan", &v));
  // Surrounding whitespace is trimmed, like ParseDouble.
  EXPECT_TRUE(ParseInt64(" 12 ", &v));
  EXPECT_EQ(v, 12);
  // One past each end of the int64 range.
  EXPECT_FALSE(ParseInt64("9223372036854775808", &v));
  EXPECT_FALSE(ParseInt64("-9223372036854775809", &v));
  EXPECT_FALSE(ParseInt64("99999999999999999999999999", &v));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
}

TEST(Crc32Test, MatchesKnownAnswer) {
  // The classic CRC-32 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, IsIncremental) {
  const std::string s = "the quick brown fox";
  const uint32_t whole = Crc32(s);
  uint32_t inc = Crc32(s.substr(0, 7));
  inc = Crc32(s.substr(7), inc);
  EXPECT_EQ(inc, whole);
}

TEST(CodecTest, WritersAreLittleEndianAndCursorReadsThemBack) {
  std::string b;
  PutU8(0xab, &b);
  PutU32(0x01020304u, &b);
  PutU64(0x0102030405060708ull, &b);
  PutI32(-2, &b);
  EXPECT_EQ(b, std::string("\xab\x04\x03\x02\x01"
                           "\x08\x07\x06\x05\x04\x03\x02\x01"
                           "\xfe\xff\xff\xff",
                           17));
  ByteCursor cur(b);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  ASSERT_TRUE(cur.TakeU8(&u8) && cur.TakeU32(&u32) && cur.TakeU64(&u64) &&
              cur.TakeI32(&i32));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0x01020304u);
  EXPECT_EQ(u64, 0x0102030405060708ull);
  EXPECT_EQ(i32, -2);
  EXPECT_TRUE(cur.AtEnd());
  EXPECT_FALSE(cur.TakeU8(&u8));  // never reads past the end
}

TEST(CodecTest, DoublesRoundTripBitwise) {
  const std::vector<double> values = {
      0.0, -0.0, 1.0, -1.5, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), DBL_MAX, -DBL_MAX,
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  std::string b;
  PutF64Array(values, &b);
  PutF64s(values.data(), values.size(), &b);
  ByteCursor cur(b);
  std::vector<double> counted;
  std::vector<double> raw(values.size());
  ASSERT_TRUE(cur.TakeF64Array(&counted));
  ASSERT_TRUE(cur.TakeF64s(raw.data(), raw.size()));
  EXPECT_TRUE(cur.AtEnd());
  ASSERT_EQ(counted.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::memcmp(&counted[i], &values[i], 8), 0) << i;
    EXPECT_EQ(std::memcmp(&raw[i], &values[i], 8), 0) << i;
  }
}

TEST(CodecTest, CountsBeyondTheBufferAreRejectedBeforeAllocation) {
  std::string b;
  PutU32(0xffffffffu, &b);  // claims 4G doubles / ints / bytes
  b.append(16, '\0');
  std::vector<double> d;
  std::vector<int32_t> i;
  std::string s;
  EXPECT_FALSE(ByteCursor(b).TakeF64Array(&d));
  EXPECT_FALSE(ByteCursor(b).TakeI32Array(&i));
  EXPECT_FALSE(ByteCursor(b).TakeString(&s));
  EXPECT_TRUE(d.empty());
  EXPECT_TRUE(i.empty());
  double out[3];
  EXPECT_FALSE(ByteCursor(b).TakeF64s(out, 3));
}

TEST(CodecTest, SignedBytesRoundTrip) {
  std::string file = "MAGC";
  PutU64(42, &file);
  PutCrc32Trailer(&file);
  ByteCursor body;
  ASSERT_TRUE(OpenSignedBytes(file, "MAGC", &body).ok());
  uint64_t v = 0;
  ASSERT_TRUE(body.TakeU64(&v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(body.AtEnd());
}

TEST(CodecTest, SignedBytesCatchEveryFlipAndTruncation) {
  std::string file = "MAGC";
  PutString("some payload", &file);
  PutCrc32Trailer(&file);
  ByteCursor body;
  for (size_t pos = 0; pos < file.size(); ++pos) {
    std::string bad = file;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
    EXPECT_FALSE(OpenSignedBytes(bad, "MAGC", &body).ok()) << pos;
  }
  for (size_t n = 0; n < file.size(); ++n) {
    EXPECT_FALSE(OpenSignedBytes(file.substr(0, n), "MAGC", &body).ok())
        << "prefix of " << n << " bytes validated";
  }
  // A file of another format fails on its magic, CRC or not.
  const Status other = OpenSignedBytes("TEXT format\nCRC32 00000000\n",
                                       "MAGC", &body);
  EXPECT_NE(other.message().find("magic"), std::string::npos)
      << other.ToString();
  const Status resigned = OpenSignedBytes(file, "MAGD", &body);
  EXPECT_NE(resigned.message().find("magic"), std::string::npos)
      << resigned.ToString();
}

TEST(EnvTest, WriteListReadDelete) {
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "/tcss_env_test";
  ASSERT_TRUE(env->CreateDirs(dir).ok());
  const std::string path = dir + "/file.txt";
  {
    auto f = env->NewWritableFile(path);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Append("hello ").ok());
    ASSERT_TRUE(f.value()->Append("world").ok());
    ASSERT_TRUE(f.value()->Flush().ok());
    ASSERT_TRUE(f.value()->Close().ok());
  }
  EXPECT_TRUE(env->FileExists(path));
  auto contents = env->ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "hello world");
  auto names = env->ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_NE(std::find(names.value().begin(), names.value().end(),
                      "file.txt"),
            names.value().end());
  EXPECT_TRUE(env->DeleteFile(path).ok());
  EXPECT_FALSE(env->FileExists(path));
  EXPECT_FALSE(env->ReadFileToString(path).ok());
}

TEST(EnvTest, AtomicWriteFileReplacesAndSurvives) {
  Env* env = Env::Default();
  const std::string path = ::testing::TempDir() + "/tcss_atomic.txt";
  ASSERT_TRUE(AtomicWriteFile(env, path, "first").ok());
  ASSERT_TRUE(AtomicWriteFile(env, path, "second").ok());
  auto contents = env->ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "second");
  EXPECT_FALSE(env->FileExists(path + ".tmp"));  // tmp cleaned by rename
}

TEST(FaultEnvTest, CountdownFailsKthAndLaterOps) {
  const std::string path = ::testing::TempDir() + "/tcss_fault.txt";
  FaultInjectionEnv env(Env::Default());
  env.set_fail_after(1);  // op 0 succeeds, op 1+ fail
  auto f = env.NewWritableFile(path);  // op 0
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(f.value()->Append("boom").ok());   // op 1: fails
  EXPECT_FALSE(f.value()->Flush().ok());          // op 2: still failing
  EXPECT_EQ(env.ops_attempted(), 3);
  EXPECT_EQ(env.ops_failed(), 2);
}

TEST(FaultEnvTest, DisabledInjectionPassesThrough) {
  const std::string path = ::testing::TempDir() + "/tcss_nofault.txt";
  FaultInjectionEnv env(Env::Default());
  ASSERT_TRUE(AtomicWriteFile(&env, path, "fine").ok());
  auto contents = env.ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "fine");
  EXPECT_GT(env.ops_attempted(), 0);
  EXPECT_EQ(env.ops_failed(), 0);
}

TEST(FaultEnvTest, TruncateOnFailureTearsTheWrite) {
  const std::string path = ::testing::TempDir() + "/tcss_torn.txt";
  FaultInjectionEnv env(Env::Default());
  env.set_fail_after(1);
  env.set_truncate_on_failure(true);
  auto f = env.NewWritableFile(path);  // op 0
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(f.value()->Append("0123456789").ok());  // op 1: torn
  // A restarted process sees a prefix of the payload, not all of it.
  auto contents = Env::Default()->ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_LT(contents.value().size(), 10u);
  EXPECT_EQ(contents.value(), std::string("0123456789")
                                  .substr(0, contents.value().size()));
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) {
    sink = sink + std::sqrt(double(i));
  }
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  const double a = sw.ElapsedMillis();
  const double b = sw.ElapsedMillis();
  EXPECT_LE(a, b);  // monotone
  double t1 = sw.ElapsedSeconds();
  sw.Restart();
  EXPECT_LE(sw.ElapsedSeconds(), t1 + 1.0);
}

TEST(LoggingTest, ParseLogLevelAcceptsKnownNamesCaseInsensitively) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("ERROR", &level));
  EXPECT_EQ(level, LogLevel::kError);
}

TEST(LoggingTest, ParseLogLevelRejectsUnknownNames) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_FALSE(ParseLogLevel("warned", &level));   // prefix + extra
  EXPECT_FALSE(ParseLogLevel("deb", &level));      // strict prefix
  EXPECT_EQ(level, LogLevel::kInfo);               // output untouched
}

TEST(LoggingTest, InitLogLevelFromEnvAppliesAndKeepsDefaultOnUnknown) {
  const LogLevel original = GetLogLevel();
  setenv("TCSS_LOG_LEVEL", "error", 1);
  InitLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Unknown values warn on stderr and keep the current level.
  setenv("TCSS_LOG_LEVEL", "shout", 1);
  InitLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  unsetenv("TCSS_LOG_LEVEL");
  SetLogLevel(original);
}

}  // namespace
}  // namespace tcss
