/// Conference rooms — the paper's demonstration, end to end:
///
/// * the exact Figure-1 building (9 sensors, 4 rooms) including the naive
///   pruning anomaly that motivates KSpot, then
/// * the live conference-floor monitor with the Display Panel's KSpot
///   Bullets re-ranking every epoch and the System Panel projecting the
///   savings — what attendees would see on the projector wall.
#include <cstdio>

#include "core/naive.hpp"
#include "core/oracle.hpp"
#include "data/generators.hpp"
#include "kspot/coordinator.hpp"
#include "kspot/display_panel.hpp"
#include "kspot/scenario_config.hpp"
#include "kspot/system_panel.hpp"
#include "kspot/tag_shadow.hpp"
#include "query/parser.hpp"

using namespace kspot;

namespace {

void Figure1Anomaly() {
  std::printf("--- Part 1: why not just prune locally? (Figure 1) ---\n\n");
  system::Scenario fig1 = system::Scenario::Figure1();
  sim::Topology topo = fig1.BuildTopology();
  sim::RoutingTree tree = sim::RoutingTree::FromParents(sim::MakeFigure1Parents());
  sim::Network net(&topo, &tree, {}, util::Rng(1));
  data::ConstantGenerator gen(sim::Figure1Readings());

  core::QuerySpec spec;
  spec.k = 1;
  spec.agg = agg::AggKind::kAvg;
  spec.grouping = core::Grouping::kRoom;
  spec.domain_max = 100.0;

  core::Oracle oracle(&topo, &gen, spec);
  std::printf("true room averages:");
  for (const auto& item : oracle.FullView(0).Ranked(agg::AggKind::kAvg)) {
    std::printf("  %s=%.1f", sim::Figure1RoomName(item.group).c_str(), item.value);
  }

  core::NaiveTopK naive(&net, &gen, spec);
  core::TopKResult wrong = naive.RunEpoch(0);
  std::printf("\nnaive local pruning reports: (%s, %.1f)  <-- WRONG: s4 eliminated (D, 39)\n",
              sim::Figure1RoomName(wrong.items.at(0).group).c_str(), wrong.items[0].value);

  system::QueryCoordinator::Options opt;
  opt.epochs = 1;
  opt.make_generator = [](const system::Scenario&, uint64_t) {
    return std::make_unique<data::ConstantGenerator>(sim::Figure1Readings());
  };
  system::QueryCoordinator coordinator(fig1, opt);
  (void)coordinator.Admit("SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid");
  auto report = coordinator.Run();
  const auto& item = report.value().outcomes.at(0).per_epoch.at(0).items.at(0);
  std::printf("KSpot (MINT) reports:        (%s, %.1f)  <-- correct\n\n",
              fig1.ClusterName(item.group).c_str(), item.value);
}

void LiveMonitor() {
  std::printf("--- Part 2: the live conference monitor (Figure 3 / Section IV-B) ---\n\n");
  system::Scenario floor = system::Scenario::ConferenceFloor(6, 3, 2009);
  system::QueryCoordinator::Options opt;
  opt.epochs = 25;
  opt.seed = 2009;
  system::QueryCoordinator coordinator(floor, opt);
  system::DisplayPanel panel(&coordinator.deployment().scenario, 64, 14);
  std::printf("%s\n", panel.RenderMap().c_str());

  const char* sql =
      "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min";
  auto admitted = coordinator.Admit(sql);
  if (!admitted.ok()) {
    std::printf("error: %s\n", admitted.status().message().c_str());
    return;
  }
  // The System Panel's savings: the session against a TAG shadow run over
  // the same data.
  system::TagShadow shadow(coordinator.deployment(), opt, query::Parse(sql).value());
  system::SystemPanel sys;
  (void)coordinator.Open();
  for (size_t e = 0; e < opt.epochs; ++e) {
    system::EpochUpdate update = coordinator.StepEpoch().value();
    sys.RecordKspotEpoch(update.epoch_cost);
    sys.RecordBaselineEpoch(shadow.Step(update.epoch));
    const core::TopKResult& r = *update.groups[0].result;
    if (r.epoch % 6 == 0) {
      std::printf("%s", panel.RenderBullets(r).c_str());
      if (r.epoch == 24) std::printf("\n%s", sys.Render().c_str());
    }
  }
  (void)coordinator.Close();
  std::printf("\n%s", sys.Render().c_str());
}

}  // namespace

int main() {
  std::printf("=== KSpot conference-rooms demonstration ===\n\n");
  Figure1Anomaly();
  LiveMonitor();
  return 0;
}
