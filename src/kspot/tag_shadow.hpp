#pragma once

#include <memory>
#include <vector>

#include "core/epoch_algorithm.hpp"
#include "core/select.hpp"
#include "fault/churn_engine.hpp"
#include "kspot/deployment.hpp"

namespace kspot::system {

/// The System Panel's baseline (Sections I and IV-B): a query's plain TAG
/// counterpart, run beside a serving session over identical data so the
/// panel can project what KSpot saves. Step it once per session epoch and
/// feed SystemPanel::RecordBaselineEpoch:
///
///   TagShadow shadow(coord.deployment(), options, parsed);
///   coord.Open();
///   for (sim::Epoch e = 0; e < options.epochs; ++e) {
///     panel.RecordKspotEpoch(coord.StepEpoch().value().epoch_cost);
///     panel.RecordBaselineEpoch(shadow.Step(e));
///   }
///
/// The shadow owns everything it drives: a copy of the deployment's tree,
/// a network seeded `seed ^ kNetworkSalt` like the session's, the same data
/// wave, and with churn on a ChurnEngine on the session's fault plan
/// (crashes and degradations are exogenous; only battery deaths may diverge
/// with each side's traffic). The operator follows the query class:
/// snapshot and grouped queries run TagTopK, horizontal historic queries
/// TagTopK over per-node window aggregates, ungrouped selects the same
/// tuple collection the session runs (that already is TAG), and vertical
/// historic queries one TagHistoric pass over the buffered windows on the
/// first Step (later steps cost nothing).
class TagShadow {
 public:
  /// `parsed` must be a valid query (what QueryCoordinator::Admit accepts).
  /// `deployment` must outlive the shadow.
  TagShadow(const Deployment& deployment, const DeploymentConfig& config,
            const query::ParsedQuery& parsed);
  /// The network and operator hold pointers into the shadow's own members.
  TagShadow(const TagShadow&) = delete;
  TagShadow& operator=(const TagShadow&) = delete;

  /// Runs the baseline for `epoch` (churn first, as the session does) and
  /// returns its radio bill for exactly that epoch.
  sim::TrafficCounters Step(sim::Epoch epoch);

  /// The baseline's whole radio bill so far.
  const sim::TrafficCounters& total() const { return net_.total(); }

 private:
  sim::RoutingTree tree_;
  sim::Network net_;
  std::unique_ptr<data::DataGenerator> gen_;
  std::unique_ptr<data::DataGenerator> window_gen_;
  std::unique_ptr<fault::ChurnEngine> churn_;
  /// One operator per query class: `tag_` (snapshot, grouped, horizontal),
  /// `select_` (ungrouped selects), or, for vertical queries, the buffered
  /// windows in `stores_`, emptied once TAG-H has run over them.
  std::unique_ptr<core::EpochAlgorithm> tag_;
  std::unique_ptr<core::BasicSelect> select_;
  std::vector<storage::HistoryStore> stores_;
  core::HistoricOptions historic_;
  bool vertical_ = false;
};

}  // namespace kspot::system
