// Command-line front end for the library:
//
//   firzen_cli synth --profile beauty --scale 0.4 --out DIR
//       Generate a synthetic benchmark and export it as TSV files.
//
//   firzen_cli train --interactions F --text F --image F --kg F
//              [--model Firzen] [--dim 32] [--epochs 20] [--seed 7]
//              [--cold-fraction 0.2] [--save model.fzem]
//       Train any registered model on TSV data, report strict cold-start and
//       warm-start metrics, optionally serialize the final embeddings.
//       Bounds: --dim >= 1, 0 <= --epochs <= INT_MAX, --seed >= 0
//       (integers) and 0 < --cold-fraction < 1; a value out of bounds or
//       not a number is a usage error (exit 2). So is an unknown --model,
//       and a model that trains on item features (MM, CS, MKGAT, Firzen)
//       without --text/--image, or on a knowledge graph (KG, MKGAT)
//       without --kg.
//
//   firzen_cli serve-shard --embeddings model.fzem --shard-range A:B
//              [--listen 127.0.0.1:0] [--item-block 512]
//              [--precision fp32|int8]
//       Serve one contiguous item-id shard of a serialized model over the
//       distributed wire protocol (src/serve/wire.h) until SIGINT/SIGTERM.
//       Prints "listening on ADDR ..." (with the kernel-assigned port
//       resolved) so orchestration can scrape where it bound. The same
//       server also ships as the standalone firzen_shard_server binary.
//
//   firzen_cli recommend --embeddings model.fzem --user ID [--k 10]
//              [--exclude 3,17,42] [--users 1,2,3 [--serve-threads 4]]
//              [--precision fp32|int8]
//              [--shards 4] [--shard-servers ADDR,ADDR,...]
//              [--rpc-timeout-ms 5000]
//              [--admission-batch 64 [--admission-wait-us 200]]
//              [--deadline-us 5000] [--max-queue-depth 128] [--tenant 0]
//       Serve top-K recommendations from a serialized model through the
//       block-streaming ServingEngine. --users serves several users over
//       ONE shared engine; --serve-threads answers them from concurrent
//       request threads (the engine is thread-safe — responses are
//       identical for any thread count). --shards N partitions the
//       engine's item catalog into N shards with a bit-exact top-K merge —
//       responses are identical for any shard count. --shard-servers fans
//       requests out to running serve-shard processes instead
//       (DistributedServingEngine); on the healthy path the output is
//       byte-identical to the local engine, and when a shard server is
//       down the surviving shards still answer, reported as DEGRADED on
//       stderr (exit stays 0 — degraded is served).
//       --admission-batch N (with N > 1) puts an AdmissionController in
//       front of the engine or coordinator: concurrent requests coalesce
//       into fused user batches of up to N, each request waiting at most
//       --admission-wait-us microseconds for co-riders — responses are
//       bit-identical with admission on or off, for any batch/wait bound.
//       Overload protection (adds admission implicitly when needed):
//       --deadline-us B gives every request a latency budget of B
//       microseconds from enqueue (expired requests are rejected with
//       DEADLINE_EXCEEDED, never scored late), --max-queue-depth D bounds
//       the admission queue (requests past it are rejected with SHED
//       instead of blocking), and --tenant T tags the requests with a
//       fair-share tenant id. Non-OK requests are reported on stderr and
//       the exit status is nonzero when any request was not served.
//       --precision int8 serves through the quantized catalog
//       (docs/quantization.md): an item table 7.1x smaller than the
//       8-byte Real one at d = 64, SIMD integer scoring, rankings gated by
//       the Recall@K quality ctest. With --shard-servers the flag is
//       ignored here — each serve-shard process picks its own (start them
//       all with the same value).
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/data/io.h"
#include "src/data/split.h"
#include "src/data/synthetic.h"
#include "src/eval/admission.h"
#include "src/eval/serving.h"
#include "src/models/registry.h"
#include "src/models/serialize.h"
#include "src/serve/distributed_serving.h"
#include "src/serve/shard_server.h"
#include "src/util/logging.h"
#include "src/util/table_printer.h"

namespace {

using namespace firzen;  // NOLINT(build/namespaces)

std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i + 1 < argc; i += 2) {
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

// THE string-enum flag parser: every choice-valued flag (--profile,
// --precision, ...) goes through here, so an unknown value is an error
// listing the valid choices — never a silent fallthrough to a default
// (which is how `--profile beuaty` used to quietly synthesize the beauty
// profile). `*value` carries the default in and the parsed choice out.
bool ParseChoiceFlag(const std::map<std::string, std::string>& flags,
                     const std::string& key,
                     const std::vector<std::string>& choices,
                     std::string* value) {
  const std::string got = FlagOr(flags, key, *value);
  for (const std::string& choice : choices) {
    if (got == choice) {
      *value = got;
      return true;
    }
  }
  std::string valid;
  for (const std::string& choice : choices) {
    if (!valid.empty()) valid += ", ";
    valid += choice;
  }
  std::fprintf(stderr, "--%s expects one of {%s}, got '%s'\n", key.c_str(),
               valid.c_str(), got.c_str());
  return false;
}

// Parses --precision into the scorer tier (fp32 default; see
// docs/quantization.md for what int8 trades).
bool ParsePrecisionFlag(const std::map<std::string, std::string>& flags,
                        ScoringPrecision* precision) {
  std::string name = "fp32";
  if (!ParseChoiceFlag(flags, "precision", {"fp32", "int8"}, &name)) {
    return false;
  }
  *precision = name == "int8" ? ScoringPrecision::kInt8
                              : ScoringPrecision::kFp32;
  return true;
}

// Parses an integer flag in [min_value, max_value] into *out (left at its
// default when the flag is absent); returns false (and reports) on bad
// values.
bool ParseIntFlag(const std::map<std::string, std::string>& flags,
                  const std::string& name, long long min_value,
                  long long* out,
                  long long max_value = std::numeric_limits<long long>::max()) {
  const auto it = flags.find(name);
  if (it == flags.end()) return true;
  try {
    size_t used = 0;
    const long long parsed = std::stoll(it->second, &used);
    if (used != it->second.size() || parsed < min_value ||
        parsed > max_value) {
      throw std::invalid_argument(it->second);
    }
    *out = parsed;
    return true;
  } catch (const std::exception&) {
    if (max_value == std::numeric_limits<long long>::max()) {
      std::fprintf(stderr, "--%s expects an integer >= %lld, got '%s'\n",
                   name.c_str(), min_value, it->second.c_str());
    } else {
      std::fprintf(stderr,
                   "--%s expects an integer in [%lld, %lld], got '%s'\n",
                   name.c_str(), min_value, max_value, it->second.c_str());
    }
    return false;
  }
}

// Parses a fraction flag in the open interval (0, 1) into *out (left at its
// default when the flag is absent); returns false (and reports) on bad
// values.
bool ParseFractionFlag(const std::map<std::string, std::string>& flags,
                       const std::string& name, double* out) {
  const auto it = flags.find(name);
  if (it == flags.end()) return true;
  try {
    size_t used = 0;
    const double parsed = std::stod(it->second, &used);
    if (used == it->second.size() && parsed > 0.0 && parsed < 1.0) {
      *out = parsed;
      return true;
    }
  } catch (const std::exception&) {
  }
  std::fprintf(stderr, "--%s expects a number in (0, 1), got '%s'\n",
               name.c_str(), it->second.c_str());
  return false;
}

int RunSynth(const std::map<std::string, std::string>& flags) {
  std::string profile = "beauty";
  if (!ParseChoiceFlag(flags, "profile",
                       {"beauty", "cellphones", "clothing", "weixin"},
                       &profile)) {
    return 2;
  }
  const double scale = std::stod(FlagOr(flags, "scale", "0.4"));
  const std::string out = FlagOr(flags, "out", ".");
  SyntheticConfig config =
      profile == "cellphones" ? CellPhonesSConfig(scale)
      : profile == "clothing" ? ClothingSConfig(scale)
      : profile == "weixin"   ? WeixinSportsSConfig(scale)
                              : BeautySConfig(scale);
  const Dataset dataset = GenerateSyntheticDataset(config);
  std::vector<Interaction> all;
  for (const auto* split :
       {&dataset.train, &dataset.warm_val, &dataset.warm_test,
        &dataset.cold_val, &dataset.cold_test}) {
    all.insert(all.end(), split->begin(), split->end());
  }
  Status status = SaveInteractionsTsv(out + "/interactions.tsv", all);
  if (status.ok()) {
    status = SaveFeaturesTsv(out + "/text.tsv",
                             dataset.modalities[0].features);
  }
  if (status.ok()) {
    status = SaveFeaturesTsv(out + "/image.tsv",
                             dataset.modalities[1].features);
  }
  if (status.ok()) status = SaveKgTsv(out + "/kg.tsv", dataset.kg);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s/{interactions,text,image,kg}.tsv  (%lld users, %lld "
              "items, %zu interactions)\n",
              out.c_str(), static_cast<long long>(dataset.num_users),
              static_cast<long long>(dataset.num_items), all.size());
  return 0;
}

int RunTrain(const std::map<std::string, std::string>& flags) {
  const std::string inter_path = FlagOr(flags, "interactions", "");
  if (inter_path.empty()) {
    std::fprintf(stderr, "--interactions is required\n");
    return 2;
  }
  long long dim = 32;
  long long epochs = 20;
  long long seed = 7;
  SplitOptions split_options;
  if (!ParseIntFlag(flags, "dim", 1, &dim) ||
      !ParseIntFlag(flags, "epochs", 0, &epochs,
                    std::numeric_limits<int>::max()) ||
      !ParseIntFlag(flags, "seed", 0, &seed) ||
      !ParseFractionFlag(flags, "cold-fraction",
                         &split_options.cold_fraction)) {
    return 2;
  }
  const std::string model_name = FlagOr(flags, "model", "Firzen");
  const std::vector<ModelInfo> models = AllModels();
  const auto info = std::find_if(
      models.begin(), models.end(),
      [&](const ModelInfo& m) { return m.name == model_name; });
  if (info == models.end()) {
    std::fprintf(stderr, "unknown model '%s'; available:", model_name.c_str());
    for (const ModelInfo& m : models) {
      std::fprintf(stderr, " %s", m.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  // Each missing input names the models that need it.
  const auto missing = [&](const char* what, bool ModelInfo::*needs) {
    std::fprintf(stderr, "model '%s' needs %s; needed by:",
                 model_name.c_str(), what);
    for (const ModelInfo& m : models) {
      if (m.*needs) std::fprintf(stderr, " %s", m.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  };
  if (info->needs_features && FlagOr(flags, "text", "").empty() &&
      FlagOr(flags, "image", "").empty()) {
    return missing("item features (--text and/or --image)",
                   &ModelInfo::needs_features);
  }
  if (info->needs_kg && FlagOr(flags, "kg", "").empty()) {
    return missing("a knowledge graph (--kg)", &ModelInfo::needs_kg);
  }

  auto interactions = LoadInteractionsTsv(inter_path);
  if (!interactions.ok()) {
    std::fprintf(stderr, "%s\n", interactions.status().ToString().c_str());
    return 1;
  }
  Index num_users = 0;
  Index num_items = 0;
  for (const Interaction& x : interactions.value()) {
    num_users = std::max(num_users, x.user + 1);
    num_items = std::max(num_items, x.item + 1);
  }

  Dataset dataset;
  dataset.name = "cli";
  dataset.num_users = num_users;
  dataset.num_items = num_items;
  for (const auto& [flag, modality] :
       std::map<std::string, std::string>{{"text", "text"},
                                          {"image", "image"}}) {
    const std::string path = FlagOr(flags, flag, "");
    if (path.empty()) continue;
    auto features = LoadFeaturesTsv(path, num_items);
    if (!features.ok()) {
      std::fprintf(stderr, "%s\n", features.status().ToString().c_str());
      return 1;
    }
    dataset.modalities.push_back({modality, std::move(features.value())});
  }
  const std::string kg_path = FlagOr(flags, "kg", "");
  if (!kg_path.empty()) {
    auto kg = LoadKgTsv(kg_path, num_items);
    if (!kg.ok()) {
      std::fprintf(stderr, "%s\n", kg.status().ToString().c_str());
      return 1;
    }
    dataset.kg = std::move(kg.value());
  }

  Rng rng(static_cast<uint64_t>(seed));
  ApplyStrictColdSplit(interactions.value(), split_options, &rng, &dataset);
  dataset.CheckValid();

  auto model = CreateModel(model_name);

  TrainOptions train;
  train.embedding_dim = static_cast<Index>(dim);
  train.epochs = static_cast<int>(epochs);
  train.eval_every = 5;
  train.pool = ThreadPool::Global();
  train.verbose = FlagOr(flags, "verbose", "0") == "1";

  const ProtocolResult result =
      RunStrictColdProtocol(model.get(), dataset, train);
  TablePrinter table({"Setting", "R@20", "M@20", "N@20", "H@20", "P@20"});
  for (const char* setting : {"Cold", "Warm", "HM"}) {
    const MetricBundle& m = std::string(setting) == "Cold"
                                ? result.cold.metrics
                            : std::string(setting) == "Warm"
                                ? result.warm.metrics
                                : result.hm;
    table.BeginRow();
    table.AddCell(setting);
    table.AddCell(100.0 * m.recall);
    table.AddCell(100.0 * m.mrr);
    table.AddCell(100.0 * m.ndcg);
    table.AddCell(100.0 * m.hit);
    table.AddCell(100.0 * m.precision);
  }
  table.Print();

  const std::string save_path = FlagOr(flags, "save", "");
  if (!save_path.empty()) {
    // Serialize the post-cold-inference state (serves both settings).
    const Matrix user_emb = model->UserEmbeddings();
    const Matrix item_emb = model->ItemEmbeddings();
    if (user_emb.empty() || item_emb.empty()) {
      std::fprintf(stderr,
                   "model '%s' has no servable static embeddings; skip save\n",
                   model_name.c_str());
    } else {
      const Status status =
          SaveEmbeddings(*model, user_emb, item_emb, save_path);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("saved servable model to %s\n", save_path.c_str());
    }
  }
  return 0;
}

// Parses "3,17,42" into ids; returns false (and reports) on bad tokens.
bool ParseIdList(const std::string& flag_name, const std::string& value,
                 std::vector<Index>* out) {
  size_t pos = 0;
  while (pos < value.size()) {
    size_t next = value.find(',', pos);
    if (next == std::string::npos) next = value.size();
    const std::string token = value.substr(pos, next - pos);
    try {
      size_t used = 0;
      out->push_back(static_cast<Index>(std::stoll(token, &used)));
      if (used != token.size()) throw std::invalid_argument(token);
    } catch (const std::exception&) {
      std::fprintf(stderr, "%s expects comma-separated ids, got '%s'\n",
                   flag_name.c_str(), token.c_str());
      return false;
    }
    pos = next + 1;
  }
  return true;
}

// Serves `requests` through `backend` — from the calling thread, or with
// serve_threads > 1 from that many concurrent request threads (every
// backend is thread-safe, so responses are identical for any thread count;
// behind admission the concurrent singles coalesce into fused batches,
// still bit-identically) — and reports every response: items to stdout,
// non-OK statuses to stderr. DEGRADED responses were served (from the
// surviving shards), so they print their items and keep the exit code 0;
// every other non-OK status fails the invocation.
int ServeRequests(const AdmissionController::Backend& backend,
                  const std::vector<RecRequest>& requests,
                  long long serve_threads) {
  std::vector<RecResponse> responses(requests.size());
  if (serve_threads > 1 && requests.size() > 1) {
    std::vector<std::thread> threads;
    const size_t n = static_cast<size_t>(serve_threads);
    for (size_t t = 0; t < n; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < requests.size(); i += n) {
          responses[i] = backend({requests[i]})[0];
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  } else {
    responses = backend(requests);
  }

  const bool tag_user = requests.size() > 1;
  int not_served = 0;
  for (const RecResponse& response : responses) {
    if (response.status == RecStatus::kDegraded) {
      // Served, but from a partial catalog: say which shards were missing,
      // then print what the survivors produced.
      std::string shards;
      for (Index s : response.failed_shards) {
        if (!shards.empty()) shards += ",";
        shards += std::to_string(s);
      }
      std::fprintf(stderr, "user %lld: %s (failed shards: %s)\n",
                   static_cast<long long>(response.user),
                   RecStatusName(response.status), shards.c_str());
    } else if (response.status != RecStatus::kOk) {
      // Overload rejections and backend failures are per-request outcomes,
      // not silence: report each one and fail the invocation.
      std::fprintf(stderr, "user %lld: %s\n",
                   static_cast<long long>(response.user),
                   RecStatusName(response.status));
      ++not_served;
      continue;
    }
    for (const Recommendation& rec : response.items) {
      if (tag_user) {
        std::printf("%lld\t%lld\t%.6f\n",
                    static_cast<long long>(response.user),
                    static_cast<long long>(rec.item), rec.score);
      } else {
        std::printf("%lld\t%.6f\n", static_cast<long long>(rec.item),
                    rec.score);
      }
    }
  }
  return not_served > 0 ? 1 : 0;
}

int RunRecommend(const std::map<std::string, std::string>& flags) {
  const std::string path = FlagOr(flags, "embeddings", "");
  if (path.empty()) {
    std::fprintf(stderr, "--embeddings is required\n");
    return 2;
  }
  auto loaded = LoadEmbeddings(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Dataset empty;
  empty.num_users = loaded.value()->user_embeddings().rows();
  empty.num_items = loaded.value()->ItemEmbeddings().rows();
  empty.is_cold_item.assign(static_cast<size_t>(empty.num_items), false);

  // --admission-batch N > 1 fronts the backend with an
  // AdmissionController: concurrent requests coalesce into fused user
  // batches (one catalog stream per batch). Bit-identical output with
  // admission on or off, for any batch size or wait bound — the flags are
  // pure perf knobs, as are --serve-threads and --shards.
  long long admission_batch = 0;
  long long admission_wait_us = 200;
  long long max_queue_depth = 0;
  long long deadline_us = -1;
  long long tenant = 0;
  long long serve_threads = 1;
  long long shards = 1;
  if (!ParseIntFlag(flags, "admission-batch", 0, &admission_batch) ||
      !ParseIntFlag(flags, "admission-wait-us", 0, &admission_wait_us) ||
      !ParseIntFlag(flags, "max-queue-depth", 0, &max_queue_depth) ||
      !ParseIntFlag(flags, "deadline-us", 0, &deadline_us) ||
      !ParseIntFlag(flags, "tenant", 0, &tenant) ||
      !ParseIntFlag(flags, "serve-threads", 1, &serve_threads) ||
      !ParseIntFlag(flags, "shards", 1, &shards)) {
    return 2;
  }
  // Deadlines and queue bounds are enforced by the admission layer, so
  // asking for either implicitly adds a default-sized controller.
  if ((max_queue_depth > 0 || deadline_us >= 0) && admission_batch <= 1) {
    admission_batch = AdmissionOptions{}.max_batch;
  }

  RecRequest prototype;
  long long k = 10;
  if (!ParseIntFlag(flags, "k", 1, &k)) return 2;
  prototype.k = static_cast<Index>(k);
  prototype.deadline_us = deadline_us;
  prototype.tenant = static_cast<Index>(tenant);
  // A serialized model carries no training interactions, so exclusions are
  // whatever the caller passes explicitly.
  const std::string exclude = FlagOr(flags, "exclude", "");
  if (!exclude.empty()) {
    prototype.exclusion = ExclusionPolicy::kCustom;
    if (!ParseIdList("--exclude", exclude, &prototype.exclude)) return 2;
  }

  std::vector<Index> users;
  const std::string users_flag = FlagOr(flags, "users", "");
  if (!users_flag.empty()) {
    if (!ParseIdList("--users", users_flag, &users)) return 2;
  } else {
    long long user = 0;
    if (!ParseIntFlag(flags, "user", 0, &user)) return 2;
    users.push_back(static_cast<Index>(user));
  }
  std::vector<RecRequest> requests;
  for (Index user : users) {
    RecRequest request = prototype;
    request.user = user;
    requests.push_back(std::move(request));
  }

  // Parsed up front so an invalid value errors on every path; the local
  // engine honors it below, while with --shard-servers the precision is
  // whatever each serve-shard process was started with (the coordinator
  // merge is precision-agnostic).
  ScoringPrecision precision = ScoringPrecision::kFp32;
  if (!ParsePrecisionFlag(flags, &precision)) return 2;

  // The serving stack, chosen in this one place: a coordinator over running
  // serve-shard processes (--shard-servers) or the in-process engine over
  // --shards catalog shards, optionally behind an AdmissionController.
  // Every choice serves byte-identical output on the healthy path; with a
  // shard server down the coordinator still answers from the survivors
  // (DEGRADED). Members are destroyed front end first.
  std::unique_ptr<DistributedServingEngine> coordinator;
  std::unique_ptr<ServingEngine> engine;
  AdmissionController::Backend backend;
  const std::string shard_servers = FlagOr(flags, "shard-servers", "");
  if (!shard_servers.empty()) {
    if (flags.count("precision") != 0) {
      std::fprintf(stderr,
                   "note: --precision is ignored with --shard-servers; the "
                   "serve-shard processes' own --precision applies\n");
    }
    DistributedServingOptions dist_options;
    size_t pos = 0;
    while (pos < shard_servers.size()) {
      size_t next = shard_servers.find(',', pos);
      if (next == std::string::npos) next = shard_servers.size();
      if (next > pos) {
        dist_options.shard_addresses.push_back(
            shard_servers.substr(pos, next - pos));
      }
      pos = next + 1;
    }
    long long rpc_timeout_ms = dist_options.rpc_timeout_ms;
    if (!ParseIntFlag(flags, "rpc-timeout-ms", 1, &rpc_timeout_ms)) return 2;
    dist_options.rpc_timeout_ms = rpc_timeout_ms;
    auto connected =
        DistributedServingEngine::Connect(std::move(dist_options));
    if (!connected.ok()) {
      std::fprintf(stderr, "%s\n", connected.status().ToString().c_str());
      return 1;
    }
    coordinator = std::move(connected.value());
    if (coordinator->num_items() != empty.num_items) {
      std::fprintf(stderr,
                   "shard servers cover %lld items but the model has %lld\n",
                   static_cast<long long>(coordinator->num_items()),
                   static_cast<long long>(empty.num_items));
      return 1;
    }
    backend = [c = coordinator.get()](const std::vector<RecRequest>& batch) {
      return c->RecommendBatch(batch);
    };
  } else {
    ServingEngineOptions engine_options;
    engine_options.num_shards = static_cast<Index>(shards);
    engine_options.precision = precision;
    engine = std::make_unique<ServingEngine>(loaded.value().get(), empty,
                                             engine_options);
    backend = [e = engine.get()](const std::vector<RecRequest>& batch) {
      return e->RecommendBatch(batch);
    };
  }
  std::unique_ptr<AdmissionController> admission;
  if (admission_batch > 1) {
    AdmissionOptions admission_options;
    admission_options.max_batch = static_cast<Index>(admission_batch);
    admission_options.max_wait_us = admission_wait_us;
    admission_options.max_queue_depth = static_cast<Index>(max_queue_depth);
    admission =
        std::make_unique<AdmissionController>(backend, admission_options);
    backend = [a = admission.get()](const std::vector<RecRequest>& batch) {
      return a->RecommendBatch(batch);
    };
  }
  return ServeRequests(backend, requests, serve_threads);
}

volatile std::sig_atomic_t g_shutdown = 0;
void OnShutdownSignal(int) { g_shutdown = 1; }

int RunServeShard(const std::map<std::string, std::string>& flags) {
  const std::string path = FlagOr(flags, "embeddings", "");
  if (path.empty()) {
    std::fprintf(stderr, "--embeddings is required\n");
    return 2;
  }
  const std::string range = FlagOr(flags, "shard-range", "");
  long long begin = 0;
  long long end = -1;  // -1 = full catalog (resolved after load)
  if (!range.empty()) {
    const size_t colon = range.find(':');
    try {
      size_t used_a = 0, used_b = 0;
      if (colon == std::string::npos) throw std::invalid_argument(range);
      begin = std::stoll(range.substr(0, colon), &used_a);
      end = std::stoll(range.substr(colon + 1), &used_b);
      if (used_a != colon || colon + 1 + used_b != range.size() || begin < 0 ||
          end < begin) {
        throw std::invalid_argument(range);
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "--shard-range expects A:B with 0 <= A <= B, got '%s'\n",
                   range.c_str());
      return 2;
    }
  }

  ShardServerOptions options;
  options.listen_address = FlagOr(flags, "listen", "127.0.0.1:0");
  long long item_block = options.item_block;
  if (!ParseIntFlag(flags, "item-block", 1, &item_block)) return 2;
  options.item_block = static_cast<Index>(item_block);
  // Fault injection for tests and drills: delay every reply by this many
  // microseconds so coordinators exercise their deadline budgets.
  long long stall_us = 0;
  if (!ParseIntFlag(flags, "stall-replies-us", 0, &stall_us)) return 2;
  options.stall_replies_us = static_cast<int64_t>(stall_us);
  if (!ParsePrecisionFlag(flags, &options.precision)) return 2;

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
  // First line is machine-scraped (tests, orchestration): the concrete
  // bound address, kernel-assigned port resolved.
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

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: firzen_cli <synth|train|recommend|serve-shard> "
                 "[--flag value]...\n");
    return 2;
  }
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv, 2);
  if (command == "synth") return RunSynth(flags);
  if (command == "train") return RunTrain(flags);
  if (command == "recommend") return RunRecommend(flags);
  if (command == "serve-shard") return RunServeShard(flags);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
