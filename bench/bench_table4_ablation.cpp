// Table IV: component ablation of Firzen on Beauty-S — removing the
// behavior-aware (BA), knowledge-aware (KA), modality-aware (MA) branches or
// the MSHGL stage (MS) and reporting Cold / Warm / HM.
#include "bench/bench_common.h"

#include "src/core/firzen_model.h"

int main() {
  using namespace firzen;        // NOLINT(build/namespaces)
  using namespace firzen::bench;  // NOLINT(build/namespaces)
  SetLogLevel(LogLevel::kError);
  PrintHeader("Table IV: Firzen component ablation (Beauty-S)",
              "paper Table IV");

  const Dataset dataset = LoadProfile("Beauty-S");
  const TrainOptions train = BenchTrainOptions();

  struct Variant {
    const char* label;
    FirzenOptions options;
  };
  std::vector<Variant> variants;
  {
    FirzenOptions o;
    o.use_behavior = false;
    variants.push_back({"w/o BA (KA+MA+MS)", o});
  }
  {
    FirzenOptions o;
    o.use_knowledge = false;
    variants.push_back({"w/o KA (BA+MA+MS)", o});
  }
  {
    FirzenOptions o;
    o.use_text = false;
    o.use_image = false;
    variants.push_back({"w/o MA (BA+KA+MS)", o});
  }
  {
    FirzenOptions o;
    o.use_mshgl = false;
    variants.push_back({"w/o MS (BA+KA+MA)", o});
  }
  variants.push_back({"Firzen (full)", FirzenOptions()});

  TablePrinter table({"Variant", "Setting", "R@20", "M@20", "N@20", "H@20",
                      "P@20"});
  for (const Variant& variant : variants) {
    FirzenModel model(variant.options);
    const ProtocolResult result =
        RunStrictColdProtocol(&model, dataset, train);
    std::fprintf(stderr, "  [%s] done (%.1fs)\n", variant.label,
                 result.fit_seconds);
    for (const char* setting : {"Cold", "Warm", "HM"}) {
      table.BeginRow();
      table.AddCell(variant.label);
      table.AddCell(setting);
      const MetricBundle& m = std::string(setting) == "Cold"
                                  ? result.cold.metrics
                              : std::string(setting) == "Warm"
                                  ? result.warm.metrics
                                  : result.hm;
      AddMetricCells(&table, m);
    }
  }
  table.Print();
  return 0;
}
