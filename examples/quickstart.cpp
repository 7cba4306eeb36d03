/// Quickstart: the 60-second tour of the KSpot public API.
///
/// 1. Describe a deployment (a Scenario: nodes, rooms, radio range).
/// 2. Start a query coordinator over it and admit the paper's SQL query.
/// 3. Step the session epoch by epoch, with a TAG shadow beside it.
/// 4. Read ranked answers and the System-Panel savings.
///
/// Build & run:  cmake -B build -G Ninja && cmake --build build &&
///               ./build/examples/quickstart
#include <cstdio>

#include "kspot/coordinator.hpp"
#include "kspot/scenario_config.hpp"
#include "kspot/system_panel.hpp"
#include "kspot/tag_shadow.hpp"
#include "query/parser.hpp"

int main() {
  using namespace kspot;

  // A conference floor: 6 clusters (Auditorium, RoomA, ..., Lobby) with 4
  // sound sensors each, plus the sink. Scenarios can also be loaded from
  // text files — see Scenario::Load.
  system::Scenario scenario = system::Scenario::ConferenceFloor(/*rooms=*/6,
                                                                /*nodes_per_room=*/4,
                                                                /*seed=*/1);

  system::QueryCoordinator::Options options;
  options.epochs = 60;  // continuous query: an hour of one-minute epochs
  options.seed = 1;
  system::QueryCoordinator coordinator(scenario, options);

  // The exact query class of Section I of the paper.
  const char* sql =
      "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid "
      "EPOCH DURATION 1 min";
  std::printf("query> %s\n\n", sql);

  util::StatusOr<system::QueryId> admitted = coordinator.Admit(sql);
  if (!admitted.ok()) {
    std::printf("query rejected: %s\n", admitted.status().message().c_str());
    return 1;
  }

  // The System Panel compares the session's radio bill with a TAG run over
  // the same data, stepped beside it.
  system::TagShadow shadow(coordinator.deployment(), options, query::Parse(sql).value());
  system::SystemPanel panel;
  (void)coordinator.Open();
  for (size_t e = 0; e < options.epochs; ++e) {
    system::EpochUpdate update = coordinator.StepEpoch().value();
    panel.RecordKspotEpoch(update.epoch_cost);
    panel.RecordBaselineEpoch(shadow.Step(update.epoch));
    if (e == 0) std::printf("routed to algorithm: %s\n\n", update.groups[0].algorithm.c_str());
    if (e % 5 != 0) continue;
    const core::TopKResult& r = *update.groups[0].result;
    std::printf("epoch %2u:", r.epoch);
    for (size_t i = 0; i < r.items.size(); ++i) {
      std::printf("  %zu. %s (%.1f)", i + 1,
                  scenario.ClusterName(r.items[i].group).c_str(), r.items[i].value);
    }
    std::printf("\n");
  }
  (void)coordinator.Close();

  std::printf("\n%s", panel.Render().c_str());
  return 0;
}
