/// E2 — reproduces the Figure-3 GUI scenario: a TOP-3 query over a 14-node
/// sensor network organized in 6 clusters, served by a coordinator session
/// with the System Panel's live savings accounting against a TAG shadow —
/// the demo loop of Section IV-B, reduced to its metrics.
#include <stdexcept>

#include "bench_util.hpp"
#include "kspot/coordinator.hpp"
#include "kspot/scenario_config.hpp"
#include "kspot/system_panel.hpp"
#include "kspot/tag_shadow.hpp"
#include "query/parser.hpp"
#include "scenarios.hpp"

namespace kspot::bench {

namespace {

/// The GUI deployment: 6 clusters, 14 sensors total (2 per cluster plus 2
/// extras near existing motes, like the screenshot).
system::Scenario MakeFig3Deployment(uint64_t seed) {
  system::Scenario scenario = system::Scenario::ConferenceFloor(6, 2, seed);
  for (int extra = 0; extra < 2; ++extra) {
    system::Scenario::Node n = scenario.nodes[1 + extra];
    n.id = static_cast<sim::NodeId>(scenario.nodes.size());
    n.x += 1.5;
    n.y += 1.0;
    scenario.nodes.push_back(n);
  }
  return scenario;
}

}  // namespace

void RegisterFig3GuiScenario(runner::ScenarioRegistry& registry) {
  runner::Scenario s;
  s.name = "fig3_gui_scenario";
  s.id = "E2";
  s.title = "Figure-3 GUI scenario: TOP-3 over 14 nodes in 6 clusters";
  s.notes =
      "The full demo loop: parsed SQL in, MINT execution, System-Panel savings vs\n"
      "the TAG shadow run.";
  s.make_trials = [](const runner::SweepOptions& opt) {
    const size_t epochs = opt.quick ? 10 : 30;
    const uint64_t seed = opt.seed != 0 ? opt.seed : 2009;
    const uint64_t floor_seed = 17;

    std::vector<runner::Trial> trials;
    runner::Trial t;
    t.spec.algorithm = "MINT";
    t.spec.seed = seed;
    t.run = [=]() -> runner::MetricList {
      const char* sql =
          "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min";
      system::QueryCoordinator::Options opt;
      opt.epochs = epochs;
      opt.seed = seed;
      system::QueryCoordinator coordinator(MakeFig3Deployment(floor_seed), opt);
      auto admitted = coordinator.Admit(sql);
      if (!admitted.ok()) {
        throw std::runtime_error("query failed: " + admitted.status().message());
      }
      // The System Panel: the session's bill against the TAG shadow's.
      system::TagShadow shadow(coordinator.deployment(), opt, query::Parse(sql).value());
      system::SystemPanel panel;
      if (!coordinator.Open().ok()) throw std::runtime_error("session failed to open");
      for (size_t e = 0; e < epochs; ++e) {
        auto step = coordinator.StepEpoch();
        if (!step.ok()) throw std::runtime_error("epoch failed: " + step.status().message());
        panel.RecordKspotEpoch(step.value().epoch_cost);
        panel.RecordBaselineEpoch(shadow.Step(step.value().epoch));
      }
      auto report = coordinator.Close();
      if (!report.ok()) throw std::runtime_error("close failed: " + report.status().message());
      return {{"epochs", static_cast<double>(report.value().outcomes.at(0).per_epoch.size())},
              {"msg_savings_pct", panel.MessageSavingsPercent()},
              {"byte_savings_pct", panel.ByteSavingsPercent()},
              {"energy_savings_pct", panel.EnergySavingsPercent()}};
    };
    trials.push_back(std::move(t));
    return trials;
  };
  RegisterOrDie(registry, std::move(s));
}

}  // namespace kspot::bench
