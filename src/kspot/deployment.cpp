#include "kspot/deployment.hpp"

#include <algorithm>
#include <utility>

#include "agg/aggregate.hpp"
#include "util/rng.hpp"

namespace kspot::system {

Deployment::Deployment(Scenario scenario_in, uint64_t seed)
    : scenario(std::move(scenario_in)), topology(scenario.BuildTopology()) {
  util::Rng tree_rng(seed ^ 0xA5A5A5A5ULL);
  if (scenario.name == "figure1" && topology.num_nodes() == 10) {
    tree = sim::RoutingTree::FromParents(sim::MakeFigure1Parents());
  } else {
    tree = sim::RoutingTree::BuildClusterAware(topology, tree_rng);
  }
}

std::unique_ptr<data::DataGenerator> Deployment::DefaultGenerator(uint64_t seed) const {
  std::vector<sim::GroupId> rooms;
  rooms.reserve(topology.num_nodes());
  for (sim::NodeId id = 0; id < topology.num_nodes(); ++id) rooms.push_back(topology.room(id));
  const data::ModalityInfo& info = data::GetModalityInfo(scenario.modality);
  double span = info.max_value - info.min_value;
  // Rooms drift independently, a building-wide component correlates hot
  // time instances across nodes, and readings land on an integer ADC grid.
  return std::make_unique<data::RoomCorrelatedGenerator>(
      std::move(rooms), scenario.modality, /*room_sigma=*/span * 0.02,
      /*noise_sigma=*/span * 0.01, util::Rng(seed), /*global_sigma=*/span * 0.03,
      /*quantize_step=*/span * 0.01);
}

std::unique_ptr<data::DataGenerator> Deployment::Generator(
    const DeploymentConfig& config) const {
  if (config.make_generator) return config.make_generator(scenario, config.seed);
  return DefaultGenerator(config.seed);
}

fault::FaultPlan Deployment::ChurnPlan(const DeploymentConfig& config) const {
  fault::FaultPlanOptions options = config.churn;
  if (options.horizon == 0 || options.horizon > config.epochs) {
    options.horizon = static_cast<sim::Epoch>(config.epochs);
  }
  return fault::FaultPlan::Generate(topology, options, config.seed ^ 0xFA11);
}

std::vector<storage::HistoryStore> Deployment::BufferWindows(data::DataGenerator& gen,
                                                             size_t window) const {
  const size_t n = topology.num_nodes();
  const data::ModalityInfo& info = data::GetModalityInfo(scenario.modality);
  std::vector<storage::HistoryStore> stores;
  stores.reserve(n);
  for (sim::NodeId id = 0; id < n; ++id) {
    stores.emplace_back(window, /*archive_to_flash=*/false, info.min_value, info.max_value);
  }
  for (size_t t = 0; t < window; ++t) {
    for (sim::NodeId id = 1; id < n; ++id) {
      stores[id].Append(static_cast<sim::Epoch>(t), gen.Value(id, static_cast<sim::Epoch>(t)));
    }
  }
  return stores;
}

core::QuerySpec SpecFromQuery(const query::ParsedQuery& parsed, const Scenario& scenario) {
  core::QuerySpec spec;
  // Basic GROUP-BY selects (no TOP clause) report every group.
  spec.k = parsed.top_k > 0 ? parsed.top_k : 1'000'000;
  const query::SelectItem* agg_item = parsed.FirstAggregate();
  if (agg_item != nullptr) {
    agg::ParseAggKind(agg_item->aggregate, &spec.agg);
  }
  spec.grouping =
      parsed.group_by == "nodeid" ? core::Grouping::kNode : core::Grouping::kRoom;
  spec.SetDomainFrom(data::GetModalityInfo(scenario.modality));
  return spec;
}

size_t HistoryWindow(const query::ParsedQuery& parsed) {
  return parsed.history > 0 ? static_cast<size_t>(parsed.history) : Deployment::kDefaultWindow;
}

core::HistoricOptions HistoricFromQuery(const query::ParsedQuery& parsed) {
  core::HistoricOptions options;
  options.k = std::max(1, parsed.top_k);
  const query::SelectItem* agg_item = parsed.FirstAggregate();
  if (agg_item != nullptr) agg::ParseAggKind(agg_item->aggregate, &options.agg);
  return options;
}

}  // namespace kspot::system
