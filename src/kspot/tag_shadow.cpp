#include "kspot/tag_shadow.hpp"

#include "core/centralized.hpp"
#include "core/tag.hpp"
#include "data/windowed.hpp"
#include "query/parser.hpp"

namespace kspot::system {

TagShadow::TagShadow(const Deployment& deployment, const DeploymentConfig& config,
                     const query::ParsedQuery& parsed)
    : tree_(deployment.tree),
      net_(&deployment.topology, &tree_, RadioOptionsFrom(config),
           util::Rng(config.seed ^ kNetworkSalt)),
      gen_(deployment.Generator(config)) {
  const core::QuerySpec spec = SpecFromQuery(parsed, deployment.scenario);
  switch (query::Classify(parsed)) {
    case query::QueryClass::kBasicSelect:
      if (parsed.FirstAggregate() == nullptr || parsed.group_by.empty()) {
        select_ = std::make_unique<core::BasicSelect>(&net_, gen_.get(), parsed.has_where,
                                                      parsed.where);
        break;
      }
      [[fallthrough]];  // GROUP BY without TOP: TAG reporting every group.
    case query::QueryClass::kSnapshotTopK:
      tag_ = std::make_unique<core::TagTopK>(&net_, gen_.get(), spec);
      break;
    case query::QueryClass::kHistoricHorizontal:
      window_gen_ = std::make_unique<data::WindowAggregateGenerator>(
          gen_.get(), deployment.topology.num_nodes(), HistoryWindow(parsed), spec.agg);
      tag_ = std::make_unique<core::TagTopK>(&net_, window_gen_.get(), spec);
      break;
    case query::QueryClass::kHistoricVertical:
      vertical_ = true;
      historic_ = HistoricFromQuery(parsed);
      stores_ = deployment.BufferWindows(*gen_, HistoryWindow(parsed));
      return;  // One-shot over buffered windows: no churn.
  }
  if (config.enable_churn) {
    churn_ = std::make_unique<fault::ChurnEngine>(&net_, &tree_, deployment.ChurnPlan(config));
  }
}

sim::TrafficCounters TagShadow::Step(sim::Epoch epoch) {
  const sim::TrafficCounters before = net_.total();
  if (vertical_) {
    if (!stores_.empty()) {
      storage::StoreHistorySource source(&stores_);
      core::TagHistoric(&net_, &source, historic_).Run();
      stores_.clear();
    }
    return net_.total().Since(before);
  }
  // Per-epoch retry budgets, as the session refills them (inert when the
  // reliability layer is off).
  net_.BeginReliabilityEpoch();
  if (churn_) {
    fault::ChurnReport report = churn_->BeginEpoch(epoch);
    if (report.topology_changed && tag_) tag_->OnTopologyChanged(report.delta);
  }
  if (tag_) {
    tag_->RunEpoch(epoch);
  } else {
    select_->RunEpoch(epoch);
  }
  return net_.total().Since(before);
}

}  // namespace kspot::system
