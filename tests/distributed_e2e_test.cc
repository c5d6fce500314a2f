// End-to-end distributed serving over real processes: spawns
// firzen_shard_server binaries, scrapes their "listening on ADDR" line,
// and drives `firzen_cli recommend --shard-servers` against them —
// asserting the CLI's distributed stdout is byte-identical to its local
// `--shards` stdout (the CLI-level determinism contract), and that a
// shard stalling past the rpc timeout mid-flight yields exit 0 with a
// DEGRADED note on stderr and best-effort items, never a hang or crash.
// (A shard that is already DEAD at startup is a different contract:
// Connect cannot validate the catalog tiling without every shard's
// range, so the CLI refuses to start — also covered below.) This is the
// only test that exercises the stack across process boundaries; the
// in-process suite (distributed_serving_test.cc) covers the engine-level
// contracts. The same process harness also pins `firzen_cli train`'s
// numeric-flag bounds: a bad value is a usage error (exit 2), not an abort.
//
// FIRZEN_CLI_BINARY / FIRZEN_SHARD_SERVER_BINARY are injected by CMake as
// the built targets' paths.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/models/serialize.h"
#include "src/util/rng.h"

namespace firzen {
namespace {

constexpr Index kUsers = 30;
constexpr Index kItems = 57;
constexpr Index kDim = 8;

std::string TempPath(const std::string& suffix) {
  return "/tmp/firzen_e2e_" + std::to_string(::getpid()) + suffix;
}

// fork + exec with stdout and stderr captured through pipes.
struct ChildProc {
  pid_t pid = -1;
  int out_fd = -1;  // child's stdout
  int err_fd = -1;  // child's stderr
};

ChildProc Spawn(const std::vector<std::string>& argv) {
  int out_pipe[2], err_pipe[2];
  if (pipe(out_pipe) != 0 || pipe(err_pipe) != 0) return {};
  const pid_t pid = fork();
  if (pid < 0) return {};
  if (pid == 0) {
    dup2(out_pipe[1], STDOUT_FILENO);
    dup2(err_pipe[1], STDERR_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    close(err_pipe[0]);
    close(err_pipe[1]);
    std::vector<char*> args;
    for (const std::string& arg : argv) {
      args.push_back(const_cast<char*>(arg.c_str()));
    }
    args.push_back(nullptr);
    execv(args[0], args.data());
    _exit(127);  // exec failed
  }
  close(out_pipe[1]);
  close(err_pipe[1]);
  ChildProc child;
  child.pid = pid;
  child.out_fd = out_pipe[0];
  child.err_fd = err_pipe[0];
  return child;
}

std::string ReadAll(int fd) {
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

// Blocks until the child writes one full line to stdout — the server's
// "listening on ADDR (...)" announcement.
std::string ReadLine(int fd) {
  std::string line;
  char c;
  while (read(fd, &c, 1) == 1) {
    if (c == '\n') break;
    line.push_back(c);
  }
  return line;
}

struct CommandResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

CommandResult RunCommand(const std::vector<std::string>& argv) {
  ChildProc child = Spawn(argv);
  CommandResult result;
  if (child.pid < 0) return result;
  result.out = ReadAll(child.out_fd);
  result.err = ReadAll(child.err_fd);
  close(child.out_fd);
  close(child.err_fd);
  int status = 0;
  waitpid(child.pid, &status, 0);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

// A running shard-server process; terminated and reaped on destruction so
// a failing ASSERT never leaks a child.
class ServerProc {
 public:
  ServerProc(const std::string& embeddings, Index begin, Index end,
             int64_t stall_replies_us = 0) {
    child_ = Spawn({FIRZEN_SHARD_SERVER_BINARY, "--embeddings", embeddings,
                    "--shard-range",
                    std::to_string(begin) + ":" + std::to_string(end),
                    "--listen", "127.0.0.1:0", "--stall-replies-us",
                    std::to_string(stall_replies_us)});
    if (child_.pid < 0) return;
    // "listening on ADDR (shard [A,B) of N items)"
    const std::string line = ReadLine(child_.out_fd);
    const std::string prefix = "listening on ";
    const size_t space = line.find(" (");
    if (line.rfind(prefix, 0) == 0 && space != std::string::npos) {
      address_ = line.substr(prefix.size(), space - prefix.size());
    }
  }
  ~ServerProc() { Terminate(SIGTERM); }

  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  const std::string& address() const { return address_; }
  bool running() const { return child_.pid > 0; }

  // Stops the server (SIGTERM for graceful, SIGKILL for a crash test) and
  // reaps it. Idempotent.
  void Terminate(int sig) {
    if (child_.pid <= 0) return;
    kill(child_.pid, sig);
    int status = 0;
    waitpid(child_.pid, &status, 0);
    close(child_.out_fd);
    close(child_.err_fd);
    child_.pid = -1;
  }

 private:
  ChildProc child_;
  std::string address_;
};

TEST(DistributedE2ETest, CliDistributedMatchesLocalAndDegradesOnKill) {
  // A servable model on disk, shared by the servers and both CLI paths.
  const std::string model_path = TempPath(".fzem");
  Matrix user_emb(kUsers, kDim), item_emb(kItems, kDim);
  Rng rng(71);
  user_emb.FillNormal(&rng, 1.0);
  item_emb.FillNormal(&rng, 1.0);
  StaticRecommender model("e2e", user_emb, item_emb);
  const Status saved = SaveEmbeddings(model, user_emb, item_emb, model_path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  ServerProc shard0(model_path, 0, 29);
  ServerProc shard1(model_path, 29, kItems);
  ASSERT_TRUE(shard0.running());
  ASSERT_TRUE(shard1.running());
  ASSERT_FALSE(shard0.address().empty()) << "no listening line from shard 0";
  ASSERT_FALSE(shard1.address().empty()) << "no listening line from shard 1";

  const std::string users = "0,3,7,11,29";
  const std::vector<std::string> distributed_cmd = {
      FIRZEN_CLI_BINARY,  "recommend", "--embeddings",    model_path,
      "--shard-servers",  shard0.address() + "," + shard1.address(),
      "--users",          users,       "--k",             "8"};
  const CommandResult distributed = RunCommand(distributed_cmd);
  ASSERT_EQ(distributed.exit_code, 0) << distributed.err;
  EXPECT_FALSE(distributed.out.empty());

  // Local sharded serving of the same model: stdout must match BYTE FOR
  // BYTE — for any local shard count, by the shard-invariance contract,
  // and with admission plus concurrent request threads in front of either
  // the local engine or the coordinator.
  const std::vector<std::vector<std::string>> backend_args = {
      {"--shards", "1"},
      {"--shards", "2"},
      {"--shards", "3"},
      {"--shards", "2", "--admission-batch", "4", "--serve-threads", "3"},
      {"--shard-servers", shard0.address() + "," + shard1.address(),
       "--admission-batch", "4", "--serve-threads", "3"},
  };
  for (const std::vector<std::string>& args : backend_args) {
    std::vector<std::string> cmd = {FIRZEN_CLI_BINARY, "recommend",
                                    "--embeddings",    model_path,
                                    "--users",         users,
                                    "--k",             "8"};
    cmd.insert(cmd.end(), args.begin(), args.end());
    const CommandResult local = RunCommand(cmd);
    std::string label;
    for (const std::string& arg : args) label += " " + arg;
    ASSERT_EQ(local.exit_code, 0) << label << ": " << local.err;
    EXPECT_EQ(distributed.out, local.out) << label;
  }

  // With a shard DEAD at startup, the coordinator cannot learn its range,
  // so the tiling is unverifiable: the CLI must refuse to start (nonzero
  // exit, error on stderr) rather than silently serve half the catalog.
  shard1.Terminate(SIGKILL);
  const CommandResult half = RunCommand(distributed_cmd);
  EXPECT_NE(half.exit_code, 0);
  EXPECT_FALSE(half.err.empty());

  // Replace shard 1 with a server that stalls every reply for 2s — it
  // handshakes fine (Connect succeeds) but can never answer within the
  // rpc timeout, the process-level version of a shard dying mid-flight.
  // The CLI must still exit 0, flag DEGRADED with the failed shard on
  // stderr, and print the survivors' items.
  ServerProc stalled(model_path, 29, kItems, /*stall_replies_us=*/2'000'000);
  ASSERT_FALSE(stalled.address().empty()) << "no listening line from stall";
  const std::vector<std::string> degraded_cmd = {
      FIRZEN_CLI_BINARY,  "recommend", "--embeddings",     model_path,
      "--shard-servers",  shard0.address() + "," + stalled.address(),
      "--users",          users,       "--rpc-timeout-ms", "250",
      "--k",              "8"};
  const CommandResult degraded = RunCommand(degraded_cmd);
  EXPECT_EQ(degraded.exit_code, 0) << degraded.err;
  EXPECT_FALSE(degraded.out.empty());
  EXPECT_NE(degraded.err.find("DEGRADED"), std::string::npos) << degraded.err;
  EXPECT_NE(degraded.err.find("failed shards: 1"), std::string::npos)
      << degraded.err;
  // Degraded output differs from the full-catalog output (items from the
  // stalled shard's range are gone) but is a subset of the same lines.
  EXPECT_NE(degraded.out, distributed.out);

  // With EVERY shard down, nothing can be dialed: Connect fails and the
  // CLI reports rather than hangs.
  shard0.Terminate(SIGTERM);
  stalled.Terminate(SIGTERM);
  const CommandResult down = RunCommand(distributed_cmd);
  EXPECT_NE(down.exit_code, 0);
  EXPECT_FALSE(down.err.empty());

  std::remove(model_path.c_str());
}

TEST(CliTrainFlagsTest, BadNumericValuesAreUsageErrors) {
  // A real (tiny) dataset, so a flag that slipped through would train
  // rather than fail on a missing file.
  char dir_template[] = "/tmp/firzen_e2e_train_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;
  const CommandResult synth = RunCommand(
      {FIRZEN_CLI_BINARY, "synth", "--profile", "beauty", "--scale", "0.05",
       "--out", dir});
  ASSERT_EQ(synth.exit_code, 0) << synth.err;

  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--epochs", "abc"},        {"--epochs", "-1"},
      {"--epochs", "3000000000"},
      {"--seed", "x"},            {"--seed", "-2"},
      {"--dim", "0"},             {"--dim", "-3"},
      {"--dim", "4x"},            {"--cold-fraction", "1.5"},
      {"--cold-fraction", "0"},   {"--cold-fraction", "abc"},
  };
  for (const auto& [flag, value] : bad) {
    const CommandResult train = RunCommand(
        {FIRZEN_CLI_BINARY, "train", "--interactions",
         dir + "/interactions.tsv", "--model", "BPR", flag, value});
    EXPECT_EQ(train.exit_code, 2) << flag << " " << value << ": " << train.err;
    EXPECT_NE(train.err.find(flag), std::string::npos)
        << flag << " " << value << ": " << train.err;
  }

  for (const char* file : {"interactions", "text", "image", "kg"}) {
    std::remove((dir + "/" + file + ".tsv").c_str());
  }
  ::rmdir(dir.c_str());
}

TEST(CliTrainFlagsTest, ModelsWithoutTheirInputsAreUsageErrors) {
  // Feature and KG models used to abort (SIGABRT) deep in training when
  // their input flag was missing; now train names the flag and exits 2.
  char dir_template[] = "/tmp/firzen_e2e_inputs_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;
  const CommandResult synth = RunCommand(
      {FIRZEN_CLI_BINARY, "synth", "--profile", "beauty", "--scale", "0.05",
       "--out", dir});
  ASSERT_EQ(synth.exit_code, 0) << synth.err;
  const std::string inter = dir + "/interactions.tsv";
  const std::string kg = dir + "/kg.tsv";
  const std::string text = dir + "/text.tsv";

  struct Case {
    std::vector<std::string> args;
    std::string named;  // flag the message must name
  };
  const std::vector<Case> cases = {
      {{"--model", "Firzen"}, "--text"},
      {{"--model", "VBPR", "--kg", kg}, "--image"},
      {{"--model", "CKE"}, "--kg"},
      {{"--model", "MKGAT", "--text", text}, "--kg"},
      {{"--model", "MKGAT", "--kg", kg}, "--text"},
  };
  for (const Case& c : cases) {
    std::vector<std::string> argv = {FIRZEN_CLI_BINARY, "train",
                                     "--interactions", inter, "--epochs",
                                     "0"};
    argv.insert(argv.end(), c.args.begin(), c.args.end());
    const CommandResult train = RunCommand(argv);
    EXPECT_EQ(train.exit_code, 2) << c.args[1] << ": " << train.err;
    EXPECT_NE(train.err.find(c.named), std::string::npos)
        << c.args[1] << ": " << train.err;
    EXPECT_NE(train.err.find(c.args[1]), std::string::npos) << train.err;
  }

  for (const char* file : {"interactions", "text", "image", "kg"}) {
    std::remove((dir + "/" + file + ".tsv").c_str());
  }
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace firzen
