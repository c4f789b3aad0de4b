// Argument checks of the tcss CLI (label "fuzz"): fork/execs the built
// binary (TCSS_CLI_PATH) on a tiny generated preset and a one-epoch model.
// A malformed or out-of-range `recommend` argument, a negative or
// non-integer value of any integer flag, a malformed or non-finite real,
// and a flag the command does not read must exit with status 2 and a
// message — not read past a factor matrix, wrap through a size_t cast or
// run with a value the user did not ask for.
// Options the server cannot run with must end `serve` at once; the ctest
// TIMEOUT fails this suite instead of stalling it if one ever hangs again.
// `recommend --new-only` must exclude what `serve`'s `new` excludes.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

// Exit status of the CLI run with `args`, or -signal if a signal ended it.
// A run still alive after `timeout_s` is SIGKILLed (and reads -SIGKILL),
// so a hanging command fails its test instead of outliving it. Its stdout
// goes to `stdout_path`.
int RunCli(std::vector<std::string> args, double timeout_s = 60.0,
           const std::string& stdout_path = "/dev/null") {
  args.insert(args.begin(), TCSS_CLI_PATH);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    // stdout to stdout_path; stderr keeps the CLI's message.
    std::freopen(stdout_path.c_str(), "w", stdout);
    execv(argv[0], argv.data());
    _exit(127);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  int status = 0;
  while (waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return WIFSIGNALED(status) ? -WTERMSIG(status) : WEXITSTATUS(status);
}

// A generated preset plus a one-epoch model, shared by every test.
class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() / "tcss_cli_test")
               .string();
    model_ = dir_ + "/m.txt";
    std::filesystem::remove_all(dir_);
    ASSERT_EQ(RunCli({"generate", "--scale", "0.1", "--out", dir_}), 0);
    ASSERT_EQ(RunCli({"train", "--data", dir_, "--model", model_,
                      "--epochs", "1", "--num-threads", "1"}),
              0);
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(dir_); }

  // `serve --listen` on a short socket path (sun_path caps at ~100 bytes).
  static std::vector<std::string> ServeArgs(const std::string& flag,
                                            const std::string& value) {
    return {"serve",    "--data", dir_,
            "--model",  model_,   "--listen",
            "/tmp/tcss-cli-" + std::to_string(getpid()) + ".sock",
            flag,       value};
  }

  static std::string dir_;
  static std::string model_;
};

std::string CliTest::dir_;
std::string CliTest::model_;

TEST_F(CliTest, RecommendBadArgumentsExitWithStatus2) {
  // A later --user overrides the first one.
  auto recommend = [](const std::string& flag, const std::string& value) {
    return RunCli({"recommend", "--data", dir_, "--model", model_, "--user",
                   "0", flag, value});
  };
  EXPECT_EQ(recommend("--time", "0"), 0);
  EXPECT_EQ(recommend("--time", "11"), 0);  // the last month bin
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--time", "-1"}, {"--time", "12"},  {"--time", "1x"},
      {"--user", "-1"}, {"--user", "0.5"}, {"--k", "ten"}};
  for (const auto& [flag, value] : bad) {
    EXPECT_EQ(recommend(flag, value), 2) << flag << " " << value;
  }
}

TEST_F(CliTest, RecommendNewOnlyExcludesEveryCheckin) {
  // `serve` excludes every check-in in the dataset from a `new` request;
  // `recommend --new-only` must too, not only the 80% train split's.
  std::map<uint32_t, std::set<uint32_t>> visited;
  std::ifstream csv(dir_ + "/checkins.csv");
  std::string line;
  std::getline(csv, line);  // user_id,poi_id,unix_seconds
  while (std::getline(csv, line)) {
    uint32_t user = 0, poi = 0;
    char comma = 0;
    std::istringstream(line) >> user >> comma >> poi;
    visited[user].insert(poi);
  }
  ASSERT_FALSE(visited.empty());
  const std::string out = dir_ + "/recs.txt";
  for (const auto& [user, pois] : visited) {
    ASSERT_EQ(RunCli({"recommend", "--data", dir_, "--model", model_,
                      "--user", std::to_string(user), "--time", "6", "--k",
                      "10", "--new-only"},
                     60.0, out),
              0);
    std::ifstream recs(out);
    std::getline(recs, line);  // title
    std::getline(recs, line);  // column names
    size_t printed = 0;
    while (std::getline(recs, line)) {
      size_t rank = 0;
      uint32_t poi = 0;
      std::istringstream(line) >> rank >> poi;
      EXPECT_EQ(pois.count(poi), 0u)
          << "user " << user << " checked in at recommended POI " << poi;
      ++printed;
    }
    EXPECT_GT(printed, 0u) << "user " << user;
  }
}

TEST_F(CliTest, IntegerFlagsRejectNegativeAndNonIntegerValues) {
  // `--rank -1` used to reach a size_t cast and abort on a length_error.
  EXPECT_EQ(RunCli({"train", "--data", dir_, "--model", dir_ + "/r.txt",
                    "--rank", "-1"}),
            2);
  EXPECT_EQ(RunCli(ServeArgs("--max-batch", "-1")), 2);
  EXPECT_EQ(RunCli(ServeArgs("--queue", "x")), 2);
}

TEST_F(CliTest, MalformedAndUnknownFlagsExitWithStatus2) {
  // A real that is not a finite number in range, a misspelt or foreign
  // flag, an unknown granularity and a negative deadline: each must exit
  // 2 before any work (not run with a value the user did not ask for), so
  // `train` and `generate` write nothing.
  const std::string out = dir_ + "/bad";
  auto train = [&](const std::string& flag, const std::string& value) {
    return std::vector<std::string>{"train",    "--data", dir_, "--model",
                                    out,        "--epochs", "1", flag,
                                    value};
  };
  const std::vector<std::vector<std::string>> bad = {
      train("--lambda", "abc"),
      train("--lambda", "nan"),
      train("--lambda", "inf"),
      train("--lamda", "0.5"),
      train("--granularity", "weeks"),
      {"generate", "--scale", "abc", "--out", out},
      {"recommend", "--data", dir_, "--model", model_, "--user", "0", "--K",
       "5"},
      ServeArgs("--deadline-ms", "-1"),
  };
  for (const auto& args : bad) {
    std::string line;
    for (const std::string& a : args) line += " " + a;
    EXPECT_EQ(RunCli(args, 20.0), 2) << line;
    EXPECT_FALSE(std::filesystem::exists(out)) << line << " wrote " << out;
    std::filesystem::remove_all(out);
  }
}

TEST_F(CliTest, ServeWithZeroMaxBatchExitsInsteadOfHanging) {
  // A zero batch used to take no request off the queue, forever.
  const int code = RunCli(ServeArgs("--max-batch", "0"), 20.0);
  EXPECT_NE(code, 0);
  EXPECT_NE(code, -SIGKILL) << "serve --max-batch 0 hung";
}

TEST_F(CliTest, ServeWithZeroQueueOrConnectionLimitExits) {
  // Either limit at 0 shed every request (or connection) while the
  // server ran on; Server::Start refuses both.
  for (const char* flag : {"--queue", "--max-conns"}) {
    EXPECT_EQ(RunCli(ServeArgs(flag, "0"), 20.0), 1) << flag;
  }
}

}  // namespace
