/// E17 — multi-query server throughput on one shared deployment.
///
/// The QueryCoordinator admits N concurrent queries against a single
/// long-lived deployment (one tree, one battery ledger, one per-epoch data
/// wave) and piggybacks compatible snapshot queries on one converge-cast.
/// This scenario measures what that buys over serving one query at a time
/// (the same coordinator running Admit -> Run -> Cancel per query):
/// aggregate queries/sec (wall clock, one "query" = one admitted query
/// served for the full run) and per-query radio traffic, at 1/4/16/64
/// concurrent queries, churn on/off, for a fleet of identical snapshot
/// dashboards ("snapshot") and a mixed snapshot+select+historic workload
/// ("mixed").
///
/// Wall-clock metrics are machine-dependent: the scenario is excluded from
/// bit-determinism checks, CI runs it quick with --threads 1, and
/// bench/check_regression.py gates coord_qps against the committed baseline
/// (bench/baseline/BENCH_E17_server_throughput.json) the same way E16 gates
/// epochs/sec.
#include <chrono>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "kspot/coordinator.hpp"
#include "kspot/scenario_config.hpp"
#include "scenarios.hpp"

namespace kspot::bench {

namespace {

struct ServerThroughputConfig {
  size_t queries = 16;
  size_t epochs = 120;
  uint64_t seed = 171;
  bool churn = false;
  bool mixed = false;
};

/// The admitted workload. "snapshot" is N users watching the same top-3
/// dashboard (the pure piggyback case); "mixed" cycles snapshot variants,
/// an acquisitional SELECT, a grouped select and a historic TJA audit, so
/// both shared and distinct operators are exercised.
std::vector<std::string> BuildQueryMix(const ServerThroughputConfig& cfg) {
  static const std::vector<std::string> kMixedCycle = {
      "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid",
      "SELECT nodeid, sound FROM sensors WHERE sound > 60",
      "SELECT TOP 1 roomid, MAX(sound) FROM sensors GROUP BY roomid",
      "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 24",
      "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid",
      "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid",
  };
  std::vector<std::string> queries;
  queries.reserve(cfg.queries);
  for (size_t i = 0; i < cfg.queries; ++i) {
    if (cfg.mixed) {
      queries.push_back(kMixedCycle[i % kMixedCycle.size()]);
    } else {
      queries.push_back(kMixedCycle[0]);
    }
  }
  return queries;
}

runner::MetricList RunServerThroughput(const ServerThroughputConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  system::Scenario floor = system::Scenario::ConferenceFloor(8, 4, cfg.seed);
  std::vector<std::string> queries = BuildQueryMix(cfg);

  fault::FaultPlanOptions churn_opt;
  churn_opt.crash_prob = 0.01;
  churn_opt.mean_downtime = 10;

  // Piggybacking can collapse a 64-query run to one operator, so a single
  // Run may be sub-millisecond — unmeasurable for any wall-clock gate.
  // Repeat the (pure, identical) runs until the timed region is long enough
  // to mean something; qps divides by the repetitions.
  constexpr double kMinTimedSeconds = 0.025;
  auto timed_reps = [](auto&& fn) {
    Clock::time_point start = Clock::now();
    size_t reps = 0;
    double elapsed = 0.0;
    do {
      fn();
      ++reps;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < kMinTimedSeconds);
    return std::pair<size_t, double>(reps, elapsed);
  };

  // Shared data plane: one coordinator run serves every query.
  system::QueryCoordinator::Options copt;
  copt.epochs = cfg.epochs;
  copt.seed = cfg.seed;
  copt.enable_churn = cfg.churn;
  copt.churn = churn_opt;
  system::QueryCoordinator coordinator(floor, copt);
  for (const std::string& sql : queries) {
    auto admitted = coordinator.Admit(sql);
    if (!admitted.ok()) std::abort();  // catalogue bug: queries must admit
  }
  util::StatusOr<system::CoordinatorReport> report_or = coordinator.Run();  // warm-up
  auto [coord_reps, coord_s] = timed_reps([&] { report_or = coordinator.Run(); });
  if (!report_or.ok()) std::abort();
  const system::CoordinatorReport& report = report_or.value();

  // Sequential serving: the same queries, one at a time on one coordinator
  // (Admit -> Run -> Cancel), so both legs see the same fault process.
  system::QueryCoordinator sequential(floor, copt);
  auto serve_alone = [&sequential](const std::string& sql) {
    auto id = sequential.Admit(sql);
    if (!id.ok()) std::abort();
    auto outcome = sequential.Run();
    if (!outcome.ok() || !sequential.Cancel(id.value()).ok()) std::abort();
    return outcome.value().total.messages;
  };
  uint64_t seq_msgs = 0;
  serve_alone(queries.front());  // warm-up
  auto [seq_reps, seq_s] = timed_reps([&] {
    seq_msgs = 0;
    for (const std::string& sql : queries) seq_msgs += serve_alone(sql);
  });

  double n = static_cast<double>(cfg.queries);
  double coord_qps = coord_s > 0.0 ? n * static_cast<double>(coord_reps) / coord_s : 0.0;
  double seq_qps = seq_s > 0.0 ? n * static_cast<double>(seq_reps) / seq_s : 0.0;
  return {{"coord_qps", coord_qps},
          {"seq_qps", seq_qps},
          {"speedup", seq_qps > 0.0 ? coord_qps / seq_qps : 0.0},
          {"operators", static_cast<double>(report.operators)},
          {"coord_msgs_per_query", static_cast<double>(report.total.messages) / n},
          {"seq_msgs_per_query", static_cast<double>(seq_msgs) / n}};
}

}  // namespace

void RegisterServerThroughput(runner::ScenarioRegistry& registry) {
  runner::Scenario s;
  s.name = "server_throughput";
  s.id = "E17";
  s.title = "multi-query server throughput: shared data plane vs one query at a time";
  s.notes =
      "coord_qps/seq_qps are wall-clock; run with --threads 1 when comparing\n"
      "numbers. speedup = coord_qps / seq_qps; operators counts distinct\n"
      "operator instances after snapshot piggybacking. The sequential leg\n"
      "serves each query alone on the same coordinator (Admit, Run, Cancel).\n"
      "bench/check_regression.py gates CI on this scenario's coord_qps.";
  s.make_trials = [](const runner::SweepOptions& opt) {
    std::vector<runner::Trial> trials;
    for (bool mixed : {false, true}) {
      for (bool churn : {false, true}) {
        for (size_t queries : {1u, 4u, 16u, 64u}) {
          runner::Trial t;
          t.spec.algorithm = "COORD";
          t.spec.seed = opt.seed != 0 ? opt.seed : 171;
          t.spec.params = {{"queries", std::to_string(queries)},
                           {"mix", mixed ? "mixed" : "snapshot"},
                           {"churn", churn ? "on" : "off"}};
          ServerThroughputConfig cfg;
          cfg.queries = queries;
          cfg.epochs = opt.quick ? 30 : 120;
          cfg.seed = t.spec.seed;
          cfg.churn = churn;
          cfg.mixed = mixed;
          t.run = [cfg]() { return RunServerThroughput(cfg); };
          trials.push_back(std::move(t));
        }
      }
    }
    return trials;
  };
  RegisterOrDie(registry, std::move(s));
}

}  // namespace kspot::bench
