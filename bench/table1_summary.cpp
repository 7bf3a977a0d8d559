// Table I: relative comparison of the pub/sub approaches, regenerated from
// small instances of the paper's experiments.
//
// The paper's Table I grades each approach on subscription traffic,
// delivery accuracy and broker processing behaviour; this driver measures
// all three on shared workloads and prints both the raw numbers and the
// derived grades.
#include <iostream>
#include <map>
#include <string>

#include "metrics/report.hpp"
#include "workloads/game.hpp"
#include "workloads/hft.hpp"

namespace {

using namespace evps;

struct SystemScore {
  double traffic = 0;        // sub msgs/min/broker (HFT)
  double error_rate = 0;     // FP+FN / truth (HFT)
  double processing_ms = 0;  // evolution-handling time (game)
};

HftConfig hft_config(SystemKind system, double pub_rate) {
  HftConfig cfg;
  cfg.system = system;
  cfg.seed = 42;
  cfg.pub_rate = pub_rate;
  cfg.change_rate_per_min = 30.0;
  cfg.validity = Duration::seconds(30.0);
  cfg.duration = SimTime::from_seconds(60.0);
  cfg.traffic_interval = Duration::seconds(30.0);
  return cfg;
}

const char* grade_traffic(double value, double resub) {
  if (value < resub * 0.1) return "very low";
  if (value < resub * 0.6) return "medium";
  return "high";
}

const char* grade_error(double e) {
  if (e < 0.01) return "excellent";
  if (e < 0.05) return "good";
  return "fair";
}

}  // namespace

int main() {
  std::cout << "Reproduction of Table I: relative comparison of approaches\n";

  const SystemKind systems[] = {SystemKind::kResub, SystemKind::kParametric, SystemKind::kVes,
                                SystemKind::kLees, SystemKind::kClees};
  std::map<SystemKind, SystemScore> scores;

  // Traffic (publication feed off — the metric is independent of it).
  for (const auto system : systems) {
    HftExperiment exp(hft_config(system, 0.0));
    exp.run();
    scores[system].traffic = exp.traffic().mean();
  }

  // Accuracy against the centralised ground truth.
  HftExperiment truth_exp(hft_config(SystemKind::kGroundTruth, 40.0));
  truth_exp.run();
  const DeliveryLog truth = truth_exp.delivery_log();
  for (const auto system : systems) {
    HftExperiment exp(hft_config(system, 40.0));
    exp.run();
    scores[system].error_rate = compare_logs(truth, exp.delivery_log()).error_rate();
  }

  // Processing time on the game broker. The paper's LEES runs the scan
  // loop; the extra row (not a paper approach) reaches the areas of interest
  // through the window-envelope index, DESIGN.md section 18.
  const auto processing_ms = [](SystemKind system, bool envelope_index) {
    GameConfig cfg;
    cfg.system = system;
    cfg.lees_envelope_index = envelope_index;
    cfg.seed = 7;
    cfg.characters = 500;
    cfg.clients = 100;
    cfg.pub_rate = 200.0;
    cfg.duration = SimTime::from_seconds(15.0);
    GameExperiment exp(cfg);
    exp.run();
    const auto& costs = exp.engine_costs();
    return (costs.maintenance.sum() + costs.lazy_eval.sum()) * 1000.0;
  };
  for (const auto system : systems) scores[system].processing_ms = processing_ms(system, false);

  const double resub_traffic = scores[SystemKind::kResub].traffic;
  Table t{{"approach", "sub traffic (msgs/min/broker)", "traffic grade", "FP+FN rate",
           "accuracy grade", "evolution processing (ms)"}};
  const auto add_row = [&](const std::string& name, const SystemScore& s) {
    t.add_row({name, Table::fmt(s.traffic, 1), grade_traffic(s.traffic, resub_traffic),
               Table::fmt(s.error_rate * 100, 2) + "%", grade_error(s.error_rate),
               Table::fmt(s.processing_ms, 1)});
  };
  for (const auto system : systems) add_row(to_string(system), scores[system]);
  // HFT traffic and accuracy depend on deliveries only, which the index
  // leaves unchanged: they are the paper LEES row's.
  SystemScore indexed = scores[SystemKind::kLees];
  indexed.processing_ms = processing_ms(SystemKind::kLees, true);
  add_row("LEES + envelope index", indexed);
  t.print();

  std::cout << "\npaper Table I (qualitative): resub = high traffic / worst accuracy;\n"
               "parametric = medium traffic; evolving = lowest traffic; LEES most\n"
               "accurate; CLEES best processing scalability; VES cheapest matching\n"
               "but maintenance grows with the total subscription population.\n"
               "The last row is not a paper approach: LEES with the window-envelope\n"
               "index (DESIGN.md section 18), same deliveries, programs run on hits only.\n";
  return 0;
}
