// Kernel microbenchmarks (google-benchmark): the computational primitives
// dominating training cost — SpMM over the frozen graphs, dense Gemm
// (including the backward-pass layouts of the Eq. 29 contrastive step), the
// kNN item-item graph build and its strict-cold expansion, the KG attention
// rebuild (per epoch and per strict-cold pass; a DESIGN.md §4 ablation
// candidate), lazy vs dense Adam, top-K ranking selection, and the cost
// of one ParallelFor hand-off.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/frozen_graphs.h"
#include "src/core/losses.h"
#include "src/data/synthetic.h"
#include "src/graph/collaborative_kg.h"
#include "src/graph/knn_graph.h"
#include "src/models/kg_common.h"
#include "src/tensor/csr.h"
#include "src/tensor/init.h"
#include "src/tensor/ops.h"
#include "src/tensor/optim.h"
#include "src/tensor/quantized.h"
#include "src/util/ranking.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace firzen {
namespace {

CsrMatrix RandomGraph(Index n, Index degree, uint64_t seed) {
  Rng rng(seed);
  std::vector<CooEntry> entries;
  for (Index r = 0; r < n; ++r) {
    for (Index d = 0; d < degree; ++d) {
      entries.push_back({r, rng.UniformInt(n), 1.0});
    }
  }
  return CsrMatrix::FromCoo(n, n, std::move(entries)).SymNormalized();
}

// -------------------------------------------------------------------------
// Seed reference kernels, kept verbatim so every BM_*SeedRef case pins the
// pre-blocked/pre-parallel baseline and speedups are measurable from one
// binary (compare against the matching BM_Gemm / BM_SpMM / BM_BatchTopK
// case in BENCH_kernels.json).
// -------------------------------------------------------------------------

void SeedRefGemmNN(const Matrix& a, const Matrix& b, Matrix* c) {
  const Index m = a.rows();
  const Index k = a.cols();
  const Index n = b.cols();
  c->Resize(m, n);
  for (Index i = 0; i < m; ++i) {
    const Real* arow = a.row(i);
    Real* crow = c->row(i);
    for (Index p = 0; p < k; ++p) {
      const Real av = arow[p];
      if (av == 0.0) continue;
      const Real* brow = b.row(p);
      for (Index j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void SeedRefSpMM(const CsrMatrix& m, const Matrix& x, Matrix* y) {
  y->Resize(m.rows(), x.cols());
  const Index d = x.cols();
  for (Index r = 0; r < m.rows(); ++r) {
    Real* out = y->row(r);
    for (Index p = m.row_ptr()[r]; p < m.row_ptr()[r + 1]; ++p) {
      const Real v = m.values()[static_cast<size_t>(p)];
      const Real* in = x.row(m.col_idx()[static_cast<size_t>(p)]);
      for (Index c = 0; c < d; ++c) out[c] += v * in[c];
    }
  }
}

// Interaction-graph profiles at benchmark scale: Amazon-Beauty-like tail
// sparsity (avg degree ~9) and the denser Weixin-Sports-like profile.
struct SparsityProfile {
  Index n;
  Index degree;
};
constexpr SparsityProfile kAmazonLike{12000, 9};
constexpr SparsityProfile kWeixinLike{6000, 25};

void BM_SpMM(benchmark::State& state) {
  const Index n = state.range(0);
  const Index degree = state.range(1);
  const Index d = state.range(2);
  const CsrMatrix graph = RandomGraph(n, degree, 1);
  Rng rng(2);
  Matrix x(n, d);
  x.FillNormal(&rng, 1.0);
  Matrix y;
  for (auto _ : state) {
    graph.SpMM(x, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * graph.nnz() * d);
  state.SetLabel("threads=" + std::to_string(GlobalPoolThreadCount()));
}
BENCHMARK(BM_SpMM)
    ->Args({2000, 10, 32})
    ->Args({2000, 10, 64})
    ->Args({8000, 10, 32})
    ->Args({kAmazonLike.n, kAmazonLike.degree, 64})
    ->Args({kWeixinLike.n, kWeixinLike.degree, 64});

void BM_SpMMSeedRef(benchmark::State& state) {
  const Index n = state.range(0);
  const Index degree = state.range(1);
  const Index d = state.range(2);
  const CsrMatrix graph = RandomGraph(n, degree, 1);
  Rng rng(2);
  Matrix x(n, d);
  x.FillNormal(&rng, 1.0);
  Matrix y;
  for (auto _ : state) {
    SeedRefSpMM(graph, x, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * graph.nnz() * d);
}
BENCHMARK(BM_SpMMSeedRef)
    ->Args({kAmazonLike.n, kAmazonLike.degree, 64})
    ->Args({kWeixinLike.n, kWeixinLike.degree, 64});

void BM_SpMMT(benchmark::State& state) {
  // Backward-propagation path: transpose built once, then reused per step.
  const Index n = state.range(0);
  const CsrMatrix graph = RandomGraph(n, 10, 1);
  Rng rng(2);
  Matrix x(n, 64);
  x.FillNormal(&rng, 1.0);
  Matrix y;
  graph.SpMMT(x, &y);  // warm the cached transpose
  for (auto _ : state) {
    graph.SpMMT(x, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * graph.nnz() * 64);
}
BENCHMARK(BM_SpMMT)->Arg(8000);

// Gemm at the model's operating points: (m, k, n) with k the embedding
// width 64/128/256. {512, 128, 512} is the acceptance-gate shape.
void BM_Gemm(benchmark::State& state) {
  const Index m = state.range(0);
  const Index k = state.range(1);
  const Index n = state.range(2);
  Rng rng(3);
  Matrix a(m, k);
  a.FillNormal(&rng, 1.0);
  Matrix b(k, n);
  b.FillNormal(&rng, 1.0);
  Matrix c;
  for (auto _ : state) {
    Gemm(false, false, 1.0, a, b, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
  state.SetLabel("threads=" + std::to_string(GlobalPoolThreadCount()));
}
BENCHMARK(BM_Gemm)
    ->Args({512, 64, 512})
    ->Args({512, 128, 512})
    ->Args({512, 256, 512})
    ->Args({2048, 64, 2048});

void BM_GemmSeedRef(benchmark::State& state) {
  const Index m = state.range(0);
  const Index k = state.range(1);
  const Index n = state.range(2);
  Rng rng(3);
  Matrix a(m, k);
  a.FillNormal(&rng, 1.0);
  Matrix b(k, n);
  b.FillNormal(&rng, 1.0);
  Matrix c;
  for (auto _ : state) {
    SeedRefGemmNN(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_GemmSeedRef)
    ->Args({512, 64, 512})
    ->Args({512, 128, 512})
    ->Args({512, 256, 512});

// The layouts MatMul's backward accumulates into (beta = 1), at training
// shapes: args are (trans_a, m, k, n). Gemm(true, false) is op(A) = A^T,
// with A stored k x m. (512, 512, 32) is a gradient of Eq. 29's B x B logit
// product at B = 512, d = 32; (32, 1392, 32) has a long inner dimension.
void BM_GemmBackward(benchmark::State& state) {
  const bool trans_a = state.range(0) != 0;
  const Index m = state.range(1);
  const Index k = state.range(2);
  const Index n = state.range(3);
  Rng rng(3);
  Matrix a = trans_a ? Matrix(k, m) : Matrix(m, k);
  a.FillNormal(&rng, 1.0);
  Matrix b(k, n);
  b.FillNormal(&rng, 1.0);
  Matrix c(m, n);
  for (auto _ : state) {
    Gemm(trans_a, false, 1.0, a, b, 1.0, &c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
  state.SetLabel("threads=" + std::to_string(GlobalPoolThreadCount()));
}
BENCHMARK(BM_GemmBackward)
    ->Args({0, 512, 512, 32})
    ->Args({1, 512, 512, 32})
    ->Args({0, 32, 1392, 32})
    ->Args({1, 32, 1392, 32});

// Large-batch transposed Gemm at eval/scoring shape (512-user batch against
// a catalog slice). The kernel packs B^T in bounded kNc-column panels;
// BM_GemmTransBSeedRef pins the pre-panel behavior — materialize the whole
// transpose (a catalog-sized O(k*n) transient), then run the blocked kernel.
void BM_GemmTransBPanel(benchmark::State& state) {
  const Index m = state.range(0);
  const Index k = state.range(1);
  const Index n = state.range(2);
  Rng rng(3);
  Matrix a(m, k);
  a.FillNormal(&rng, 1.0);
  Matrix b(n, k);  // item-table layout
  b.FillNormal(&rng, 1.0);
  Matrix c;
  for (auto _ : state) {
    Gemm(false, true, 1.0, a, b, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
  state.SetLabel("threads=" + std::to_string(GlobalPoolThreadCount()));
}
BENCHMARK(BM_GemmTransBPanel)->Args({512, 64, 8192})->Args({512, 64, 32768});

void BM_GemmTransBSeedRef(benchmark::State& state) {
  const Index m = state.range(0);
  const Index k = state.range(1);
  const Index n = state.range(2);
  Rng rng(3);
  Matrix a(m, k);
  a.FillNormal(&rng, 1.0);
  Matrix b(n, k);
  b.FillNormal(&rng, 1.0);
  Matrix c;
  for (auto _ : state) {
    Matrix bt = b.Transposed();
    Gemm(false, false, 1.0, a, bt, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
  state.SetLabel("threads=" + std::to_string(GlobalPoolThreadCount()));
}
BENCHMARK(BM_GemmTransBSeedRef)->Args({512, 64, 8192})->Args({512, 64, 32768});

// Scoring-transposed Gemm (user batch x item table^T), the serving hot path.
void BM_GemmScoreBT(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(3);
  Matrix a(n, 64);
  a.FillNormal(&rng, 1.0);
  Matrix b(n, 64);
  b.FillNormal(&rng, 1.0);
  Matrix c;
  for (auto _ : state) {
    Gemm(false, true, 1.0, a, b, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * 64);
}
BENCHMARK(BM_GemmScoreBT)->Arg(256)->Arg(512);

// Quantized scoring kernel at the same shapes as BM_GemmScoreBT (its fp32
// baseline in BENCH_kernels.json): user batch pre-quantized once per
// iteration — as DotProductScorer does per request batch — against the
// pre-built int8 catalog, on whatever SIMD tier dispatch picked (recorded
// in the JSON context as firzen_simd_tier). The footprint_reduction_x
// counter is the resident fp32/Real item table size over the quantized
// table size (codes + scales + row sums) — the 7.1x memory claim at d = 64.
void BM_GemmBTQuant(benchmark::State& state) {
  const Index n = state.range(0);
  const Index k = 64;
  Rng rng(3);
  Matrix a(n, k);
  a.FillNormal(&rng, 1.0);
  Matrix b(n, k);
  b.FillNormal(&rng, 1.0);
  const QuantizedMatrix qb = QuantizedMatrix::FromMatrix(b);
  std::vector<int8_t> qa(static_cast<size_t>(n * qb.stride()));
  std::vector<float> qa_scales(static_cast<size_t>(n));
  Matrix c(n, n);
  for (auto _ : state) {
    for (Index r = 0; r < n; ++r) {
      QuantizeRow(a.row(r), k, qb.stride(), qa.data() + r * qb.stride(),
                  &qa_scales[static_cast<size_t>(r)]);
    }
    GemmBTQuant(qa.data(), n, k, qb.stride(), qa_scales.data(), qb, 0, n,
                MatrixView(&c));
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * k);
  const double real_bytes = static_cast<double>(n) * k * sizeof(Real);
  state.counters["footprint_reduction_x"] =
      real_bytes / static_cast<double>(qb.byte_size());
  state.SetLabel(std::string("tier=") + SimdTierName(DispatchedSimdTier()));
}
BENCHMARK(BM_GemmBTQuant)->Arg(256)->Arg(512);

// Args: items, feature dims. 320 x 96 is the perfbench cold-start shape
// (Beauty-S at scale 0.4, image features).
void BM_KnnGraphBuild(benchmark::State& state) {
  const Index items = state.range(0);
  Rng rng(4);
  Matrix features(items, state.range(1));
  features.FillNormal(&rng, 1.0);
  KnnGraphOptions options;
  options.top_k = 10;
  for (auto _ : state) {
    CsrMatrix g = BuildItemItemGraph(features, options);
    benchmark::DoNotOptimize(g.nnz());
  }
  state.SetItemsProcessed(state.iterations() * items * items);
}
BENCHMARK(BM_KnnGraphBuild)
    ->Args({400, 48})
    ->Args({800, 48})
    ->Args({320, 96})
    ->Unit(benchmark::kMillisecond);

// Args: Beauty-S scale in percent, and the attention inputs: 0 = small
// random entity and relation rows with every projection weight exactly
// 1.0, 1 = MakeKgEmbeddings values. {40, 1} is the perfbench cold-start
// shape, the CKG each strict-cold pass re-attends.
void BM_KgAttentionRebuild(benchmark::State& state) {
  const Dataset dataset = GenerateSyntheticDataset(
      BeautySConfig(static_cast<Real>(state.range(0)) / 100.0));
  const CollaborativeKg ckg =
      BuildCollaborativeKg(dataset.train, dataset.num_users, dataset.kg);
  Rng rng(5);
  Matrix entity(ckg.num_entities, 32);
  Matrix relation(ckg.num_relations, 32);
  Matrix proj(ckg.num_relations, 32, 1.0);
  if (state.range(1) != 0) {
    const KgEmbeddings kg =
        MakeKgEmbeddings(ckg.num_entities, ckg.num_relations, 32, &rng);
    entity = kg.entity.value();
    relation = kg.relation.value();
    proj = kg.rel_proj.value();
  } else {
    entity.FillNormal(&rng, 0.1);
    relation.FillNormal(&rng, 0.1);
  }
  for (auto _ : state) {
    CsrMatrix att = ComputeKgAttention(ckg, entity, relation, proj);
    benchmark::DoNotOptimize(att.nnz());
  }
  state.SetItemsProcessed(state.iterations() * ckg.topology.nnz());
}
BENCHMARK(BM_KgAttentionRebuild)
    ->Args({20, 0})
    ->Args({40, 1})
    ->Unit(benchmark::kMillisecond);

// Args: items, feature dims. The strict-cold item-item graph (Eqs. 34-35)
// of one modality: BuildInferenceGraphs after the training build, over a
// Beauty-S split (20% of items cold) with random features. 320 x {48, 96}
// is the perfbench cold-start shape.
void BM_InferenceGraphExpand(benchmark::State& state) {
  SyntheticConfig config = BeautySConfig(0.4);
  config.num_items = state.range(0);
  Dataset dataset = GenerateSyntheticDataset(config);
  Rng rng(8);
  Matrix features(dataset.num_items, state.range(1));
  features.FillNormal(&rng, 1.0);
  dataset.modalities = {Modality{"random", std::move(features)}};
  FrozenGraphOptions options;
  const FrozenGraphs train = BuildTrainGraphs(dataset, options);
  for (auto _ : state) {
    FrozenGraphs inference = BuildInferenceGraphs(dataset, options, train);
    benchmark::DoNotOptimize(inference.item_item.front()->nnz());
  }
  state.SetItemsProcessed(state.iterations() * dataset.num_items);
}
BENCHMARK(BM_InferenceGraphExpand)
    ->Args({320, 48})
    ->Args({320, 96})
    ->Unit(benchmark::kMillisecond);

void BM_AdamStep(benchmark::State& state) {
  const bool lazy = state.range(0) != 0;
  Rng rng(6);
  Tensor table = XavierVariable(20000, 32, &rng);
  Adam::Options options;
  options.lazy = lazy;
  Adam adam(options);
  // Sparse batch touches 512 rows.
  std::vector<Index> idx;
  for (Index i = 0; i < 512; ++i) idx.push_back(rng.UniformInt(20000));
  for (auto _ : state) {
    Tensor batch = ops::GatherRows(table, idx);
    Tensor loss = ops::SumSquares(batch);
    Backward(loss);
    adam.Step({table});
  }
  state.SetLabel(lazy ? "lazy" : "dense");
}
BENCHMARK(BM_AdamStep)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Batched serving-style top-20: a (users x items) score matrix reduced to
// per-user ranked lists. BM_BatchTopK shards users across the pool with
// per-thread TopKHeap scratch; BM_BatchTopKSeedRef is the seed approach —
// copy every item into a vector and partial_sort it, serially per user.
void BM_BatchTopK(benchmark::State& state) {
  const Index users = state.range(0);
  const Index items = state.range(1);
  constexpr Index kTop = 20;
  Rng rng(7);
  Matrix scores(users, items);
  scores.FillNormal(&rng, 1.0);
  std::vector<std::vector<ScoredItem>> results(static_cast<size_t>(users));
  for (auto _ : state) {
    ParallelFor(
        ThreadPool::Global(), users,
        [&](Index begin, Index end) {
          TopKHeap heap(kTop);
          for (Index u = begin; u < end; ++u) {
            const Real* row = scores.row(u);
            heap.Reset();
            for (Index i = 0; i < items; ++i) heap.Push(i, row[i]);
            results[static_cast<size_t>(u)] = heap.Sorted();
          }
        },
        /*min_shard_size=*/8);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * users * items);
  state.SetLabel("threads=" + std::to_string(GlobalPoolThreadCount()));
}
BENCHMARK(BM_BatchTopK)->Args({256, 10000})->Args({512, 40000});

void BM_BatchTopKSeedRef(benchmark::State& state) {
  const Index users = state.range(0);
  const Index items = state.range(1);
  constexpr Index kTop = 20;
  Rng rng(7);
  Matrix scores(users, items);
  scores.FillNormal(&rng, 1.0);
  std::vector<std::vector<ScoredItem>> results(static_cast<size_t>(users));
  for (auto _ : state) {
    for (Index u = 0; u < users; ++u) {
      const Real* row = scores.row(u);
      std::vector<ScoredItem> ranked;
      ranked.reserve(static_cast<size_t>(items));
      for (Index i = 0; i < items; ++i) ranked.push_back({i, row[i]});
      std::partial_sort(ranked.begin(), ranked.begin() + kTop, ranked.end(),
                        [](const ScoredItem& a, const ScoredItem& b) {
                          return a.score != b.score ? a.score > b.score
                                                    : a.item < b.item;
                        });
      ranked.resize(kTop);
      results[static_cast<size_t>(u)] = std::move(ranked);
    }
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * users * items);
}
BENCHMARK(BM_BatchTopKSeedRef)->Args({256, 10000});

void BM_AutogradBprStep(benchmark::State& state) {
  // One full LightGCN-style training step: propagate, gather, BPR, backward.
  const Index n = 3000;
  const CsrMatrix graph_val = RandomGraph(n, 8, 8);
  auto graph = std::make_shared<const CsrMatrix>(graph_val);
  Rng rng(9);
  Tensor table = XavierVariable(n, 32, &rng);
  std::vector<Index> users;
  std::vector<Index> pos;
  std::vector<Index> neg;
  for (Index i = 0; i < 512; ++i) {
    users.push_back(rng.UniformInt(n));
    pos.push_back(rng.UniformInt(n));
    neg.push_back(rng.UniformInt(n));
  }
  Adam adam(Adam::Options{});
  for (auto _ : state) {
    using namespace ops;  // NOLINT(build/namespaces)
    Tensor h = SpMM(graph, table);
    h = Scale(Add(h, table), 0.5);
    Tensor eu = GatherRows(h, users);
    Tensor ep = GatherRows(h, pos);
    Tensor en = GatherRows(h, neg);
    Tensor diff = Sub(RowDot(eu, ep), RowDot(eu, en));
    Tensor loss = Scale(ReduceMean(LogSigmoid(diff)), -1.0);
    Backward(loss);
    adam.Step({table});
    benchmark::DoNotOptimize(loss.scalar());
  }
}
BENCHMARK(BM_AutogradBprStep)->Unit(benchmark::kMillisecond);

// Firzen's modality contrastive term (Eq. 29) at B = 512, d = 32: forward
// plus Backward. Its two B x B logit products send A * B^T forward and
// A * B and A^T * B backward.
void BM_ModalContrastiveStep(benchmark::State& state) {
  const Index b = 512;
  const Index d = 32;
  Rng rng(10);
  Tensor final_users = XavierVariable(b, d, &rng);
  Tensor modal_users = XavierVariable(b, d, &rng);
  for (auto _ : state) {
    Tensor loss = ModalContrastiveLoss(final_users, modal_users);
    Backward(loss);
    benchmark::DoNotOptimize(loss.scalar());
  }
  state.SetLabel("threads=" + std::to_string(GlobalPoolThreadCount()));
}
BENCHMARK(BM_ModalContrastiveStep)->Unit(benchmark::kMillisecond);

// What one ParallelFor hand-off costs: a two-shard call over cheap
// elementwise work on the global pool (second arg 1) against the same loop
// run inline (second arg 0). Below the size where the two rows cross, the
// split loses to its dispatch.
void BM_ParallelForDispatch(benchmark::State& state) {
  const Index n = state.range(0);
  const bool pooled = state.range(1) != 0;
  std::vector<Real> x(static_cast<size_t>(n), 0.5);
  std::vector<Real> y(static_cast<size_t>(n));
  ThreadPool* pool = pooled ? ThreadPool::Global() : nullptr;
  for (auto _ : state) {
    ParallelFor(
        pool, n,
        [&](Index begin, Index end) {
          for (Index i = begin; i < end; ++i) {
            y[static_cast<size_t>(i)] =
                x[static_cast<size_t>(i)] * x[static_cast<size_t>(i)] + 1.0;
          }
        },
        /*min_shard_size=*/n / 2);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(pooled ? "pool threads=" +
                              std::to_string(GlobalPoolThreadCount())
                        : "inline");
}
BENCHMARK(BM_ParallelForDispatch)
    ->ArgsProduct({{2048, 8192, 32768}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace firzen

// Hand-rolled main (instead of BENCHMARK_MAIN) so the JSON context records
// which SIMD tier the quantized kernels actually dispatched — a perf number
// without its tier is not comparable across hosts or FIRZEN_SIMD overrides.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "firzen_simd_tier",
      firzen::SimdTierName(firzen::DispatchedSimdTier()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
