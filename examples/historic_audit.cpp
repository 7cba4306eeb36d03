/// Historic audit — Section III-B end to end: every mote buffers readings in
/// its sliding window (SRAM ring + MicroHash-indexed flash archive, the
/// MICA2 configuration of reference [10]); afterwards an operator asks
/// "find the K time instances with the highest average sound" and KSpot
/// answers it with TJA — then the same question through the SQL front end.
#include <cstdio>

#include "core/tja.hpp"
#include "kspot/coordinator.hpp"
#include "kspot/scenario_config.hpp"
#include "kspot/tag_shadow.hpp"
#include "query/parser.hpp"
#include "sim/network.hpp"
#include "storage/history_store.hpp"
#include "util/fixed_point.hpp"

using namespace kspot;

int main() {
  std::printf("=== KSpot historic audit: TOP-5 loudest minutes of the last 4 hours ===\n\n");
  const size_t kWindow = 240;  // 4 hours of one-minute epochs
  const uint64_t kSeed = 55;

  // Deployment: the conference floor again.
  system::Scenario scenario = system::Scenario::ConferenceFloor(6, 4, kSeed);
  sim::Topology topo = scenario.BuildTopology();
  util::Rng tree_rng(kSeed);
  sim::RoutingTree tree = sim::RoutingTree::BuildClusterAware(topo, tree_rng);

  // Phase 1: live acquisition into per-node stores. Sampling is local and
  // radio-silent; old readings spill from the SRAM ring to flash through
  // the MicroHash index.
  std::vector<sim::GroupId> rooms;
  for (sim::NodeId id = 0; id < topo.num_nodes(); ++id) rooms.push_back(topo.room(id));
  data::RoomCorrelatedGenerator gen(rooms, data::Modality::kSound, 1.0, 1.0,
                                    util::Rng(kSeed), /*global_sigma=*/4.0,
                                    /*quantize_step=*/1.0);
  std::vector<storage::HistoryStore> stores;
  for (sim::NodeId id = 0; id < topo.num_nodes(); ++id) {
    stores.emplace_back(kWindow, /*archive_to_flash=*/true, 0.0, 100.0);
  }
  const size_t kTotalEpochs = kWindow + 60;  // an hour more than the window
  for (size_t e = 0; e < kTotalEpochs; ++e) {
    for (sim::NodeId id = 1; id < topo.num_nodes(); ++id) {
      stores[id].Append(static_cast<sim::Epoch>(e), gen.Value(id, static_cast<sim::Epoch>(e)));
    }
  }
  std::printf("buffered %zu epochs per node (window %zu in SRAM, %llu pages on flash at "
              "node 1; archive best: %.0f)\n",
              kTotalEpochs, kWindow,
              static_cast<unsigned long long>(stores[1].flash_writes()),
              util::fixed_point::Decode(stores[1].ArchivedTopK(1).at(0).value_fx));

  // Phase 2: the TJA query over the stored windows.
  storage::StoreHistorySource source(&stores);
  sim::Network net(&topo, &tree, {}, util::Rng(kSeed ^ 0xAA));
  core::HistoricOptions opt;
  opt.k = 5;
  core::Tja tja(&net, &source, opt);
  core::HistoricResult result = tja.Run();

  std::printf("\nTOP-5 time instances by AVG(sound) over the window:\n");
  for (size_t i = 0; i < result.items.size(); ++i) {
    std::printf("  %zu. window slot %3d  avg %.2f\n", i + 1, result.items[i].group,
                result.items[i].value);
  }
  std::printf("TJA: |Lsink|=%zu, %d round(s); LB %llu B + HJ %llu B = %llu bytes total\n",
              result.lsink_size, result.rounds,
              static_cast<unsigned long long>(net.PhaseTotal("tja.lb").payload_bytes),
              static_cast<unsigned long long>(net.PhaseTotal("tja.hj").payload_bytes),
              static_cast<unsigned long long>(net.total().payload_bytes));

  // Phase 3: the same audit through the declarative front end.
  std::printf("\n--- the same audit through SQL ---\n");
  system::QueryCoordinator::Options sopt;
  sopt.seed = kSeed;
  system::QueryCoordinator coordinator(scenario, sopt);
  const char* sql =
      "SELECT TOP 5 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 240";
  std::printf("query> %s\n", sql);
  if (auto admitted = coordinator.Admit(sql); !admitted.ok()) {
    std::printf("error: %s\n", admitted.status().message().c_str());
    return 1;
  }
  // The session runs the one-shot TJA when it opens; the TAG shadow's first
  // step ships the same buffered windows whole (TAG-H) for comparison.
  system::TagShadow shadow(coordinator.deployment(), sopt, query::Parse(sql).value());
  (void)coordinator.Open();
  sim::TrafficCounters baseline = shadow.Step(0);
  system::CoordinatorReport report = coordinator.Close().value();
  const system::QueryOutcome& audit = report.outcomes.at(0);
  std::printf("routed to: %s; answered with %zu candidates in %d round(s); bytes: %llu "
              "(baseline TAG-H: %llu)\n",
              audit.algorithm.c_str(), audit.historic.lsink_size, audit.historic.rounds,
              static_cast<unsigned long long>(report.total.payload_bytes),
              static_cast<unsigned long long>(baseline.payload_bytes));
  for (size_t i = 0; i < audit.historic.items.size(); ++i) {
    std::printf("  %zu. window slot %3d  avg %.2f\n", i + 1, audit.historic.items[i].group,
                audit.historic.items[i].value);
  }
  return 0;
}
