// Integration test for the vbatch_cli driver binary: spawns the real
// executable (path injected by CMake) and checks exit codes and key output
// lines for the main flag combinations. trace_replay's strict numeric flags
// are checked the same way.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace {

#if !defined(VBATCH_CLI_PATH) || !defined(TRACE_REPLAY_PATH)
#error "VBATCH_CLI_PATH and TRACE_REPLAY_PATH must be defined by the build"
#endif

struct CliRun {
  int exit_code = -1;
  std::string output;
};

CliRun run_tool(const char* tool, const std::string& args) {
  CliRun r;
  const std::string cmd = std::string(tool) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 512> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) r.output += buf.data();
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

CliRun run_cli(const std::string& args) { return run_tool(VBATCH_CLI_PATH, args); }

TEST(Cli, DefaultRunSucceeds) {
  const auto r = run_cli("--batch 50 --nmax 64");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("potrf_vbatched"), std::string::npos);
  EXPECT_NE(r.output.find("Gflop/s"), std::string::npos);
}

TEST(Cli, VerifyModeChecksResiduals) {
  const auto r = run_cli("--batch 30 --nmax 48 --verify");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("worst residual"), std::string::npos);
}

TEST(Cli, TuneProfileEnergyFlags) {
  // --tune loads and saves the BLAS profile: keep it in a private file
  // (test name + pid), never the user's default cache path.
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string profile = ::testing::TempDir() + "vbatch_cli_" + info->test_suite_name() +
                              "_" + info->name() + "_" + std::to_string(getpid()) + ".json";
  ASSERT_EQ(0, setenv("VBATCH_TUNING_FILE", profile.c_str(), 1));
  const auto r = run_cli("--batch 40 --nmax 96 --tune --profile --energy");
  unsetenv("VBATCH_TUNING_FILE");
  std::remove(profile.c_str());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find(profile), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("autotune:"), std::string::npos);
  EXPECT_NE(r.output.find("kernel profile"), std::string::npos);
  EXPECT_NE(r.output.find("energy to solution"), std::string::npos);
}

TEST(Cli, GaussianSinglePrecisionSeparatedPath) {
  const auto r = run_cli("--batch 60 --nmax 900 --dist gaussian --precision s --path separated");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("path=separated"), std::string::npos);
}

TEST(Cli, BadFlagExitsWithUsage) {
  const auto r = run_cli("--bogus");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, InvalidValueRejected) {
  const auto r = run_cli("--batch 0");
  EXPECT_EQ(r.exit_code, 2);
  // Numeric flags parse strictly: non-numeric or trailing garbage exits 2
  // and names the flag instead of running with a truncated value.
  for (const auto& [args, flag] : std::array<std::pair<const char*, const char*>, 3>{{
           {"--threads zz", "--threads"},
           {"--batch 5x", "--batch"},
           {"--serve --trace f --latency-budget abc", "--latency-budget"},
       }}) {
    const auto bad = run_cli(args);
    EXPECT_EQ(bad.exit_code, 2) << args << "\n" << bad.output;
    EXPECT_NE(bad.output.find(flag), std::string::npos) << args << "\n" << bad.output;
  }
  const auto gen = run_tool(TRACE_REPLAY_PATH, "--gen --count zz");
  EXPECT_EQ(gen.exit_code, 2) << gen.output;
  EXPECT_NE(gen.output.find("--count"), std::string::npos) << gen.output;
  // So does a malformed VBATCH_NUM_THREADS, naming the variable; the CLI
  // rejects it before any pool is built.
  const std::string env_cli = std::string("VBATCH_NUM_THREADS=4abc ") + VBATCH_CLI_PATH;
  const auto env = run_tool(env_cli.c_str(), "--batch 4");
  EXPECT_EQ(env.exit_code, 2) << env.output;
  EXPECT_NE(env.output.find("VBATCH_NUM_THREADS"), std::string::npos) << env.output;
}

}  // namespace
