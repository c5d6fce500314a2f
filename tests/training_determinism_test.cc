// Training determinism across thread counts: every registered model, trained
// on one tiny synthetic world, must end in the same bits whether the global
// pool has 1 or 4 threads. The pool is sized once per process from
// FIRZEN_NUM_THREADS, so the test re-runs its own binary twice — once per
// pool size — with only the disabled child case selected. The child trains
// each model (Fit, then PrepareColdInference, the state firzen_cli train
// saves), writes its .fzem, and prints one digest line per model: the
// 64-bit FNV-1a of the .fzem bytes and of the full users x items score
// matrix. The score digest covers the models with no static embeddings to
// save (KGCN, KGNNLS), which write no .fzem. The child then runs
// PrepareNormalColdInference on the normal-cold protocol of the same world
// and hashes the full score matrix again, so the revealed-link paths
// (LightGCN's and KGAT's rebuilt graphs, DropoutNet's known-user behavior
// rows, Firzen's merged CKG) carry bits too. There are two child
// configurations: the protocol one validates once and never stops early;
// the early-stop one validates after every epoch with patience 0, so the
// validation, best-state snapshot and early-stop paths of the epoch driver
// carry bits too.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/data/split.h"
#include "src/data/synthetic.h"
#include "src/models/registry.h"
#include "src/models/serialize.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace firzen {
namespace {

uint64_t Fnv1a(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = 1469598103934665603ull;
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ull;
  }
  return hash;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// The protocol configuration: validates once (after epoch 2 of 3) and
// never reaches the early-stop break.
TrainOptions ProtocolOptions() {
  TrainOptions options;
  options.embedding_dim = 8;
  options.epochs = 3;
  options.eval_every = 2;
  // An odd batch: the B x B products of Firzen's Eq. 29 term then split
  // into row shards with ragged 4-row tiles at pool 4, and run unsplit at
  // pool 1.
  options.batch_size = 203;
  options.seed = 7;
  options.pool = ThreadPool::Global();
  return options;
}

// The 64-bit FNV-1a of `model`'s full users x items score matrix.
std::string ScoreDigest(const Recommender& model, const Dataset& dataset) {
  std::vector<Index> users;
  for (Index u = 0; u < dataset.num_users; ++u) users.push_back(u);
  Matrix scores(dataset.num_users, dataset.num_items);
  ScoringArena arena;
  model.MakeScorer()->ScoreBlock(users, ItemBlock{0, dataset.num_items},
                                 MatrixView(&scores), &arena);
  return Hex(Fnv1a(scores.data(), sizeof(Real) * scores.size()));
}

// Trains every model in this process's global pool and prints
// "digest <model> <fzem-hash|none> <score-hash> <normal-cold-score-hash>"
// lines.
void PrintModelDigests(const TrainOptions& options) {
  SetLogLevel(LogLevel::kError);
  const Dataset dataset = GenerateSyntheticDataset(BeautySConfig(0.1));
  Rng protocol_rng(11);
  const Dataset normal = MakeNormalColdProtocol(dataset, &protocol_rng);
  const std::string fzem_path = "/tmp/firzen_determinism_" +
                                std::to_string(::getpid()) + ".fzem";
  for (const ModelInfo& info : AllModels()) {
    auto model = CreateModel(info.name);
    ASSERT_NE(model, nullptr) << info.name;
    model->Fit(dataset, options);
    model->PrepareColdInference(dataset);

    std::string fzem_digest = "none";
    const Matrix user_emb = model->UserEmbeddings();
    const Matrix item_emb = model->ItemEmbeddings();
    if (!user_emb.empty() && !item_emb.empty()) {
      ASSERT_TRUE(SaveEmbeddings(*model, user_emb, item_emb, fzem_path).ok());
      std::ifstream in(fzem_path, std::ios::binary);
      const std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      std::remove(fzem_path.c_str());
      fzem_digest = Hex(Fnv1a(bytes.data(), bytes.size()));
    }

    const std::string score_digest = ScoreDigest(*model, dataset);
    model->PrepareNormalColdInference(normal);
    std::printf("digest %s %s %s %s\n", info.name.c_str(),
                fzem_digest.c_str(), score_digest.c_str(),
                ScoreDigest(*model, normal).c_str());
  }
}

TEST(TrainingDeterminismChild, DISABLED_PrintsModelDigests) {
  PrintModelDigests(ProtocolOptions());
}

// Validates after every epoch with patience 0: the first epoch whose
// validation MRR does not improve stops the run, and snapshotting models
// end on their best validated state.
TEST(TrainingDeterminismChild, DISABLED_PrintsEarlyStopDigests) {
  TrainOptions options = ProtocolOptions();
  options.epochs = 4;
  options.eval_every = 1;
  options.patience = 0;
  PrintModelDigests(options);
}

std::string SelfPath() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  return n > 0 ? std::string(buf, static_cast<size_t>(n)) : std::string();
}

// Runs the child case `child` (a TrainingDeterminismChild test name) at
// `threads` pool threads; returns model -> its three digests.
std::map<std::string, std::string> ChildDigests(const std::string& child,
                                                int threads) {
  const std::string command =
      "FIRZEN_NUM_THREADS=" + std::to_string(threads) + " '" + SelfPath() +
      "' --gtest_also_run_disabled_tests"
      " --gtest_filter=TrainingDeterminismChild." + child;
  std::map<std::string, std::string> digests;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return digests;
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  const int status = ::pclose(pipe);
  EXPECT_EQ(status, 0) << "child at " << threads << " threads:\n" << out;
  std::istringstream lines(out);
  std::string tag, model, fzem, scores, normal_scores;
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    if (fields >> tag >> model >> fzem >> scores >> normal_scores &&
        tag == "digest") {
      digests[model] = fzem + " " + scores + " " + normal_scores;
    }
  }
  return digests;
}

// Every model's digests from `child` agree between pools 1 and 4.
void ExpectSameDigestsAtPools1And4(const std::string& child) {
  ASSERT_FALSE(SelfPath().empty());
  const auto one = ChildDigests(child, 1);
  const auto four = ChildDigests(child, 4);
  for (const ModelInfo& info : AllModels()) {
    ASSERT_EQ(one.count(info.name), 1u) << info.name;
    ASSERT_EQ(four.count(info.name), 1u) << info.name;
    EXPECT_EQ(one.at(info.name), four.at(info.name))
        << info.name
        << ": .fzem / score / normal-cold score digests differ between pools"
           " 1 and 4";
  }
}

TEST(TrainingDeterminismTest, EveryModelTrainsToTheSameBitsAtPools1And4) {
  ExpectSameDigestsAtPools1And4("DISABLED_PrintsModelDigests");
}

TEST(TrainingDeterminismTest, EarlyStoppingTrainsToTheSameBitsAtPools1And4) {
  ExpectSameDigestsAtPools1And4("DISABLED_PrintsEarlyStopDigests");
}

}  // namespace
}  // namespace firzen
