// The layer replay: a workload's per-epoch call sequence driven straight
// against the layers, without the coordinator, so each layer's time and
// radio bill can be read on its own. Its simulated messages in every epoch
// must equal the serving path's EpochUpdate::epoch_cost exactly.
#include <algorithm>
#include <map>
#include <memory>

#include "agg/aggregate.hpp"
#include "bench.hpp"
#include "core/historic_stream.hpp"
#include "core/mint.hpp"
#include "core/select.hpp"
#include "core/tag.hpp"
#include "data/windowed.hpp"
#include "fault/churn_engine.hpp"
#include "kspot/deployment.hpp"
#include "query/parser.hpp"
#include "sim/network.hpp"
#include "sim/routing_tree.hpp"

namespace perfbench {

namespace ks = kspot::system;

namespace {

double MsSince(uint64_t start) { return static_cast<double>(NowNs() - start) / 1e6; }

/// One operator instance and the number of queries riding it. Queries share
/// an operator exactly when their SQL is identical: the workloads generate
/// canonical SQL, so that is the coordinator's compatibility rule here.
struct Operator {
  std::string sql;
  Bucket bucket = Bucket::kMint;
  size_t riders = 0;
  std::unique_ptr<kspot::data::DataGenerator> own_inner;
  std::unique_ptr<kspot::data::WindowAggregateGenerator> window_gen;
  std::unique_ptr<kspot::core::EpochAlgorithm> algo;
  std::unique_ptr<kspot::core::BasicSelect> select;
};

Bucket BucketOf(QueryKind kind) {
  switch (kind) {
    case QueryKind::kTopK:
      return Bucket::kMint;
    case QueryKind::kGroupedSelect:
      return Bucket::kTag;
    case QueryKind::kWhereSelect:
      return Bucket::kSelect;
    case QueryKind::kVertical:
    case QueryKind::kHorizontal:
      return Bucket::kHistoric;
  }
  return Bucket::kMint;
}

}  // namespace

ReplayResult RunReplay(const Workload& w) {
  ReplayResult r;

  // query: parse + validate every SQL string the workload sends.
  std::vector<const QueryText*> texts;
  for (const auto* list : {&w.initial, &w.fresh, &w.probe}) {
    for (const QueryText& q : *list) texts.push_back(&q);
  }
  constexpr int kParseReps = 16;
  for (const QueryText* q : texts) {
    const uint64_t start = NowNs();
    for (int i = 0; i < kParseReps; ++i) {
      kspot::util::StatusOr<kspot::query::ParsedQuery> parsed = kspot::query::Parse(q->sql);
      if (parsed.ok()) (void)kspot::query::Validate(parsed.value());
    }
    r.parse_us.push_back(MsSince(start) * 1e3 / kParseReps);
  }

  // sim: topology and tree builds, timed on their own, then the deployment
  // the replay runs on (its tree must be the one timed).
  {
    const uint64_t start = NowNs();
    kspot::sim::Topology topology = w.scenario.BuildTopology();
    r.topology_ms = MsSince(start);
  }
  const ks::Deployment deployment(w.scenario, w.seed);
  {
    kspot::util::Rng tree_rng(w.seed ^ 0xA5A5A5A5ULL);  // Deployment's tree seed
    const uint64_t start = NowNs();
    kspot::sim::RoutingTree tree =
        kspot::sim::RoutingTree::BuildClusterAware(deployment.topology, tree_rng);
    r.tree_ms = MsSince(start);
    r.tree_matches = tree.num_nodes() == deployment.tree.num_nodes();
    for (kspot::sim::NodeId id = 0; r.tree_matches && id < tree.num_nodes(); ++id) {
      r.tree_matches = tree.parent(id) == deployment.tree.parent(id);
    }
  }

  kspot::sim::RoutingTree tree = deployment.tree;
  // The coordinator seeds its session network with seed ^ net_salt; 0x77 is
  // the default salt, which the workloads leave alone.
  kspot::sim::Network net(&deployment.topology, &tree, ks::RadioOptionsFrom(w.options),
                          kspot::util::Rng(w.seed ^ 0x77));
  r.tx_j_per_s = net.options().energy.TxEnergy(1.0);
  r.rx_j_per_s = net.options().energy.RxEnergy(1.0);
  std::unique_ptr<kspot::data::DataGenerator> gen = deployment.DefaultGenerator(w.seed);
  std::unique_ptr<kspot::fault::ChurnEngine> churn;
  if (w.options.enable_churn) {
    kspot::fault::FaultPlanOptions plan_options = w.options.churn;
    if (plan_options.horizon == 0 || plan_options.horizon > w.epochs) {
      plan_options.horizon = static_cast<kspot::sim::Epoch>(w.epochs);
    }
    // The coordinator's plan seed derivation; the faithfulness check fails
    // if the two drift apart.
    churn = std::make_unique<kspot::fault::ChurnEngine>(
        &net, &tree,
        kspot::fault::FaultPlan::Generate(deployment.topology, plan_options, w.seed ^ 0xFA11));
  }

  std::vector<Operator> ops;
  const size_t n = deployment.topology.num_nodes();
  auto bind = [&](const QueryText& q) {
    for (Operator& op : ops) {
      if (op.riders > 0 && op.sql == q.sql) {
        ++op.riders;
        return;
      }
    }
    kspot::query::ParsedQuery parsed = kspot::query::Parse(q.sql).value();
    kspot::core::QuerySpec spec = ks::SpecFromQuery(parsed, deployment.scenario);
    size_t window = parsed.history > 0 ? static_cast<size_t>(parsed.history)
                                       : ks::Deployment::kDefaultWindow;
    Operator op;
    op.sql = q.sql;
    op.bucket = BucketOf(q.kind);
    op.riders = 1;
    switch (q.kind) {
      case QueryKind::kTopK:
        op.algo = std::make_unique<kspot::core::MintViews>(&net, gen.get(), spec);
        break;
      case QueryKind::kGroupedSelect:
        op.algo = std::make_unique<kspot::core::TagTopK>(&net, gen.get(), spec);
        break;
      case QueryKind::kWhereSelect:
        op.select = std::make_unique<kspot::core::BasicSelect>(&net, gen.get(), parsed.has_where,
                                                               parsed.where);
        break;
      case QueryKind::kHorizontal:
        op.own_inner = deployment.DefaultGenerator(w.seed);
        op.window_gen = std::make_unique<kspot::data::WindowAggregateGenerator>(
            op.own_inner.get(), n, window, spec.agg);
        op.algo = std::make_unique<kspot::core::MintViews>(&net, op.window_gen.get(), spec);
        break;
      case QueryKind::kVertical: {
        kspot::core::HistoricStreamOptions hopt;
        hopt.k = std::max(1, parsed.top_k);
        kspot::agg::ParseAggKind(parsed.FirstAggregate()->aggregate, &hopt.agg);
        hopt.window = window;
        hopt.incremental = w.options.historic.incremental;
        op.algo = std::make_unique<kspot::core::HistoricStream>(&net, gen.get(), hopt);
        break;
      }
    }
    ops.push_back(std::move(op));
  };
  auto release = [&](const QueryText& q) {
    for (Operator& op : ops) {
      if (op.riders == 0 || op.sql != q.sql) continue;
      if (--op.riders == 0) {
        op.algo.reset();
        op.select.reset();
        op.window_gen.reset();
        op.own_inner.reset();
      }
      return;
    }
  };

  for (const QueryText& q : w.initial) bind(q);
  std::vector<const QueryText*> live;
  for (const QueryText& q : w.initial) live.push_back(&q);
  size_t oldest = 0;
  size_t next_fresh = 0;
  for (auto& v : r.run_ms) v.assign(w.epochs, 0.0);
  for (size_t e = 0; e < w.epochs; ++e) {
    const auto epoch = static_cast<kspot::sim::Epoch>(e);
    if (w.replace_every != 0 && e != 0 && e % w.replace_every == 0 &&
        next_fresh < w.fresh.size()) {
      if (oldest < live.size()) release(*live[oldest++]);
      live.push_back(&w.fresh[next_fresh]);
      bind(w.fresh[next_fresh++]);
    }
    const kspot::sim::TrafficCounters epoch_start = net.total();
    kspot::fault::ChurnReport report;
    uint64_t start = NowNs();
    if (churn) report = churn->BeginEpoch(epoch);
    r.churn_ms.push_back(MsSince(start));
    start = NowNs();
    gen->PrepareEpoch(epoch);
    r.prepare_ms.push_back(MsSince(start));
    double repair_ms = 0.0;
    for (Operator& op : ops) {
      if (op.riders == 0) continue;
      if (report.topology_changed && op.algo) {
        start = NowNs();
        op.algo->OnTopologyChanged(report.delta);
        repair_ms += MsSince(start);
      }
      const kspot::sim::TrafficCounters before = net.total();
      start = NowNs();
      if (op.algo) {
        (void)op.algo->RunEpoch(epoch);
      } else {
        (void)op.select->RunEpoch(epoch);
      }
      const int b = static_cast<int>(op.bucket);
      r.run_ms[b][e] += MsSince(start);
      r.run_msgs[b] += net.total().Since(before).messages;
    }
    r.repair_ms.push_back(repair_ms);
    r.epoch_msgs.push_back(net.total().Since(epoch_start).messages);
  }
  r.epochs = w.epochs;
  r.by_phase = net.by_phase();
  if (churn) {
    r.repair_events = churn->repair_events();
    r.repair_messages = churn->repair_messages();
  }
  return r;
}

}  // namespace perfbench
