#pragma once

#include <memory>
#include <string>
#include <utility>

#include "core/oracle.hpp"
#include "core/query_spec.hpp"
#include "data/generators.hpp"
#include "kspot/coordinator.hpp"
#include "kspot/system_panel.hpp"
#include "kspot/tag_shadow.hpp"
#include "query/parser.hpp"
#include "sim/network.hpp"
#include "sim/routing_tree.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace kspot::testing {

/// A ready-to-run simulated deployment: topology + tree + network, with the
/// lifetime plumbing tests shouldn't have to repeat.
struct TestBed {
  sim::Topology topology;
  sim::RoutingTree tree;
  std::unique_ptr<sim::Network> net;

  static TestBed Grid(size_t nodes, size_t rooms, uint64_t seed,
                      sim::NetworkOptions net_options = {}) {
    TestBed bed;
    sim::TopologyOptions topt;
    topt.num_nodes = nodes;
    topt.num_rooms = rooms;
    bed.topology = sim::MakeGrid(topt);
    util::Rng rng(seed);
    bed.tree = sim::RoutingTree::BuildFirstHeard(bed.topology, rng);
    bed.net = std::make_unique<sim::Network>(&bed.topology, &bed.tree, net_options,
                                             util::Rng(seed ^ 0xBEEF));
    return bed;
  }

  static TestBed Clustered(size_t nodes, size_t rooms, uint64_t seed,
                           sim::NetworkOptions net_options = {}) {
    TestBed bed;
    sim::TopologyOptions topt;
    topt.num_nodes = nodes;
    topt.num_rooms = rooms;
    util::Rng topo_rng(seed);
    bed.topology = sim::MakeClusteredRooms(topt, topo_rng);
    util::Rng rng(seed ^ 0x1234);
    // Clustered deployments use the cluster-aware tree the KSpot server
    // builds from the Configuration Panel's region assignments.
    bed.tree = sim::RoutingTree::BuildClusterAware(bed.topology, rng);
    bed.net = std::make_unique<sim::Network>(&bed.topology, &bed.tree, net_options,
                                             util::Rng(seed ^ 0xBEEF));
    return bed;
  }

  static TestBed Figure1(sim::NetworkOptions net_options = {}) {
    TestBed bed;
    bed.topology = sim::MakeFigure1();
    bed.tree = sim::RoutingTree::FromParents(sim::MakeFigure1Parents());
    bed.net = std::make_unique<sim::Network>(&bed.topology, &bed.tree, net_options,
                                             util::Rng(42));
    return bed;
  }
};

/// One query served the way the System Panel shows it: a single-query
/// coordinator session with a TagShadow stepped beside it every epoch.
struct ServedQuery {
  system::QueryOutcome outcome;
  sim::TrafficCounters cost;      ///< The session's whole radio bill.
  sim::TrafficCounters baseline;  ///< The TAG shadow's whole radio bill.
  system::SystemPanel panel;
};

inline util::StatusOr<ServedQuery> ServeWithShadow(const system::Scenario& scenario,
                                                   const system::QueryCoordinator::Options& options,
                                                   const std::string& sql) {
  system::QueryCoordinator coordinator(scenario, options);
  util::StatusOr<system::QueryId> admitted = coordinator.Admit(sql);
  if (!admitted.ok()) return admitted.status();
  system::TagShadow shadow(coordinator.deployment(), options, query::Parse(sql).value());
  ServedQuery served;
  util::Status opened = coordinator.Open();
  if (!opened.ok()) return opened;
  for (size_t e = 0; e < options.epochs; ++e) {
    util::StatusOr<system::EpochUpdate> step = coordinator.StepEpoch();
    if (!step.ok()) return step.status();
    const system::EpochUpdate& update = step.value();
    served.panel.RecordKspotEpoch(update.epoch_cost);
    served.panel.RecordBaselineEpoch(shadow.Step(update.epoch));
    if (options.enable_churn) {
      system::SystemPanel::NodeStatus status;
      status.total = scenario.nodes.size();
      status.up = update.alive;
      status.detached = update.detached;
      status.repair_events = update.repair_events;
      status.repair_messages = update.repair_messages;
      served.panel.RecordNodeStatus(status);
    }
  }
  util::StatusOr<system::CoordinatorReport> report = coordinator.Close();
  if (!report.ok()) return report.status();
  served.outcome = std::move(report.value().outcomes.at(0));
  served.cost = report.value().total;
  served.baseline = shadow.total();
  return served;
}

}  // namespace kspot::testing
