// Argument checks of the tcss CLI (label "fuzz"): fork/execs the built
// binary (TCSS_CLI_PATH) on a tiny generated preset and a one-epoch model.
// A malformed or out-of-range `recommend` argument must exit with status
// 2 and a message, not read past a factor matrix.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace {

// Exit status of the CLI run with `args`, or -signal if a signal ended it.
int RunCli(std::vector<std::string> args) {
  args.insert(args.begin(), TCSS_CLI_PATH);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    std::freopen("/dev/null", "w", stdout);  // keep stderr's message
    execv(argv[0], argv.data());
    _exit(127);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFSIGNALED(status) ? -WTERMSIG(status) : WEXITSTATUS(status);
}

TEST(CliRecommendTest, BadArgumentsExitWithStatus2) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tcss_cli_test").string();
  const std::string model = dir + "/m.txt";
  std::filesystem::remove_all(dir);
  ASSERT_EQ(RunCli({"generate", "--scale", "0.1", "--out", dir}), 0);
  ASSERT_EQ(RunCli({"train", "--data", dir, "--model", model, "--epochs",
                    "1", "--num-threads", "1"}),
            0);
  // A later --user overrides the first one.
  auto recommend = [&](const std::string& flag, const std::string& value) {
    return RunCli({"recommend", "--data", dir, "--model", model, "--user",
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
  std::filesystem::remove_all(dir);
}

}  // namespace
