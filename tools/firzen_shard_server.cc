// Standalone shard server for distributed serving deployments:
//
//   firzen_shard_server --embeddings model.fzem --shard-range A:B
//                       [--listen 127.0.0.1:0] [--item-block 512]
//
// Loads a serialized model, serves the contiguous global item range
// [A, B) over the distributed wire protocol (src/serve/wire.h), and runs
// until SIGINT/SIGTERM. The first stdout line is
// "listening on ADDR (shard [A,B) of N items)" with the kernel-assigned
// port resolved, so orchestration (and tests) can scrape where it bound.
//
// `firzen_cli serve-shard` is the same server behind the same flags; this
// binary exists so deployments can ship the shard server alone.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/serve/shard_server.h"
#include "src/util/logging.h"

namespace {

using namespace firzen;  // NOLINT(build/namespaces)

volatile std::sig_atomic_t g_shutdown = 0;
void OnShutdownSignal(int) { g_shutdown = 1; }

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
      std::exit(2);
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& def) {
  auto it = flags.find(key);
  return it == flags.end() ? def : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const auto flags = ParseFlags(argc, argv);
  const std::string path = FlagOr(flags, "embeddings", "");
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: firzen_shard_server --embeddings model.fzem "
                 "--shard-range A:B [--listen HOST:PORT|unix:PATH] "
                 "[--item-block N] [--stall-replies-us N]\n");
    return 2;
  }

  long long begin = 0;
  long long end = -1;
  const std::string range = FlagOr(flags, "shard-range", "");
  if (!range.empty()) {
    const size_t colon = range.find(':');
    try {
      if (colon == std::string::npos) throw std::invalid_argument(range);
      begin = std::stoll(range.substr(0, colon));
      end = std::stoll(range.substr(colon + 1));
      if (begin < 0 || end < begin) throw std::invalid_argument(range);
    } catch (const std::exception&) {
      std::fprintf(stderr, "--shard-range expects A:B with 0 <= A <= B\n");
      return 2;
    }
  }

  ShardServerOptions options;
  options.listen_address = FlagOr(flags, "listen", "127.0.0.1:0");
  try {
    const std::string block =
        FlagOr(flags, "item-block", std::to_string(options.item_block));
    options.item_block = static_cast<Index>(std::stoll(block));
  } catch (const std::exception&) {
    std::fprintf(stderr, "--item-block expects an integer\n");
    return 2;
  }
  if (options.item_block <= 0) {
    std::fprintf(stderr, "--item-block must be positive\n");
    return 2;
  }
  try {
    options.stall_replies_us = static_cast<int64_t>(
        std::stoll(FlagOr(flags, "stall-replies-us", "0")));
  } catch (const std::exception&) {
    std::fprintf(stderr, "--stall-replies-us expects an integer\n");
    return 2;
  }
  if (options.stall_replies_us < 0) {
    std::fprintf(stderr, "--stall-replies-us must be >= 0\n");
    return 2;
  }

  if (end < 0) {
    auto probe = LoadEmbeddings(path);
    if (!probe.ok()) {
      std::fprintf(stderr, "%s\n", probe.status().ToString().c_str());
      return 1;
    }
    end = probe.value()->ItemEmbeddings().rows();
  }
  auto served = ServeEmbeddingsShard(path, static_cast<Index>(begin),
                                     static_cast<Index>(end), options);
  if (!served.ok()) {
    std::fprintf(stderr, "%s\n", served.status().ToString().c_str());
    return 1;
  }
  ShardServer& server = *served.value().server;
  std::printf("listening on %s (shard [%lld,%lld) of %lld items)\n",
              server.bound_address().c_str(),
              static_cast<long long>(server.shard_begin()),
              static_cast<long long>(server.shard_end()),
              static_cast<long long>(server.num_items()));
  std::fflush(stdout);

  std::signal(SIGINT, OnShutdownSignal);
  std::signal(SIGTERM, OnShutdownSignal);
  while (!g_shutdown) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  std::fprintf(stderr, "served %llu requests in %llu batches\n",
               static_cast<unsigned long long>(server.requests_served()),
               static_cast<unsigned long long>(server.batches_served()));
  return 0;
}
