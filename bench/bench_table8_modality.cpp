// Table VIII: contribution of each side-information branch at INFERENCE
// time. One full Firzen model is trained; final representations are then
// recomputed with branches gated: BA / BA+KA / BA+VA / BA+TA.
#include "bench/bench_common.h"

#include "src/core/firzen_model.h"
#include "src/eval/harmonic.h"

int main() {
  using namespace firzen;        // NOLINT(build/namespaces)
  using namespace firzen::bench;  // NOLINT(build/namespaces)
  SetLogLevel(LogLevel::kError);
  PrintHeader(
      "Table VIII: inference-time contribution of modality / KG branches",
      "paper Table VIII");

  const Dataset dataset = LoadProfile("Beauty-S");
  const TrainOptions train = BenchTrainOptions();
  FirzenModel model;
  model.Fit(dataset, train);

  struct Gate {
    const char* label;
    bool ka;
    bool va;
    bool ta;
    bool ms;  // MSHGL: off for the pure-behavior row (paper semantics —
              // "BA" means no side-information pathway at all)
  };
  const std::vector<Gate> gates{
      {"BA", false, false, false, false},
      {"BA+KA", true, false, false, true},
      {"BA+VA", false, true, false, true},
      {"BA+TA", false, false, true, true},
      {"BA+KA+VA+TA", true, true, true, true},
  };

  TablePrinter table({"Branches", "Setting", "R@20", "M@20", "N@20", "H@20",
                      "P@20"});
  EvalOptions eval_options;
  eval_options.pool = train.pool;
  for (const Gate& gate : gates) {
    FirzenOptions options = model.options();
    options.use_knowledge = gate.ka;
    options.use_image = gate.va;
    options.use_text = gate.ta;
    options.use_mshgl = gate.ms;

    // Warm: training graphs; Cold: expanded + masked graphs. Scorers
    // snapshot the final tables, so re-mint after each recompute.
    model.RecomputeFinal(dataset, options, /*cold_expanded=*/false);
    const EvalResult warm =
        EvaluateRanking(dataset, dataset.warm_test, EvalSetting::kWarm,
                        *model.MakeScorer(), eval_options);
    model.RecomputeFinal(dataset, options, /*cold_expanded=*/true);
    const EvalResult cold =
        EvaluateRanking(dataset, dataset.cold_test, EvalSetting::kCold,
                        *model.MakeScorer(), eval_options);
    const MetricBundle hm = HarmonicMean(cold.metrics, warm.metrics);
    std::fprintf(stderr, "  [%s] done\n", gate.label);
    for (const char* setting : {"Cold", "Warm", "HM"}) {
      table.BeginRow();
      table.AddCell(gate.label);
      table.AddCell(setting);
      const MetricBundle& m = std::string(setting) == "Cold" ? cold.metrics
                              : std::string(setting) == "Warm"
                                  ? warm.metrics
                                  : hm;
      AddMetricCells(&table, m);
    }
  }
  table.Print();
  return 0;
}
