#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/mint.hpp"
#include "fault/churn_engine.hpp"
#include "kspot/coordinator.hpp"
#include "kspot/scenario_config.hpp"
#include "query/parser.hpp"

namespace kspot::system {
namespace {

constexpr const char* kSnapshotSql =
    "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid";
constexpr const char* kSelectSql = "SELECT nodeid, sound FROM sensors WHERE sound > 40";
constexpr const char* kGroupedSelectSql =
    "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid";
constexpr const char* kVerticalSql =
    "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 24";
constexpr const char* kHorizontalSql =
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 8";

QueryCoordinator::Options SmallRun(size_t epochs = 10, uint64_t seed = 99) {
  QueryCoordinator::Options opt;
  opt.epochs = epochs;
  opt.seed = seed;
  return opt;
}

std::string EpochDigest(const std::vector<core::TopKResult>& per_epoch) {
  char buf[64];
  std::string out;
  for (const auto& epoch : per_epoch) {
    for (const auto& item : epoch.items) {
      std::snprintf(buf, sizeof buf, "%d:%.17g;", item.group, item.value);
      out += buf;
    }
    out += '|';
  }
  return out;
}

std::string ReportDigest(const CoordinatorReport& report) {
  char buf[96];
  std::string out;
  for (const auto& outcome : report.outcomes) {
    out += outcome.algorithm + "/" + EpochDigest(outcome.per_epoch);
    for (const auto& rows : outcome.rows_per_epoch) {
      for (const auto& t : rows) {
        std::snprintf(buf, sizeof buf, "%u=%.17g;", t.node, t.value);
        out += buf;
      }
    }
    for (const auto& item : outcome.historic.items) {
      std::snprintf(buf, sizeof buf, "H%d:%.17g;", item.group, item.value);
      out += buf;
    }
    std::snprintf(buf, sizeof buf, "[m=%llu,b=%llu]",
                  static_cast<unsigned long long>(outcome.shared_cost.messages),
                  static_cast<unsigned long long>(outcome.shared_cost.payload_bytes));
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "total=%llu/%llu",
                static_cast<unsigned long long>(report.total.messages),
                static_cast<unsigned long long>(report.total.payload_bytes));
  out += buf;
  return out;
}

TEST(CoordinatorTest, AdmitValidatesAndCancelWithdraws) {
  QueryCoordinator coordinator(Scenario::ConferenceFloor(4, 3, 5), SmallRun());
  EXPECT_EQ(coordinator.active_queries(), 0u);
  EXPECT_FALSE(coordinator.Admit("SELECT").ok());
  EXPECT_FALSE(coordinator.Admit("SELECT bogus FROM sensors").ok());
  EXPECT_FALSE(coordinator.Admit("SELECT TOP 2 roomid, AVG(sound) FROM sensors").ok());
  EXPECT_EQ(coordinator.active_queries(), 0u);

  auto a = coordinator.Admit(kSnapshotSql);
  auto b = coordinator.Admit(kSelectSql);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(coordinator.active_queries(), 2u);

  EXPECT_TRUE(coordinator.Cancel(a.value()).ok());
  EXPECT_FALSE(coordinator.Cancel(a.value()).ok());  // already withdrawn
  EXPECT_FALSE(coordinator.Cancel(777).ok());
  EXPECT_EQ(coordinator.active_queries(), 1u);

  auto report = coordinator.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().outcomes.size(), 1u);
  EXPECT_EQ(report.value().outcomes[0].id, b.value());
}

TEST(CoordinatorTest, SingleSnapshotQueryMatchesDirectMintOnDerivedSeeds) {
  // Pins the seed derivations the session path promises (and the perfbench
  // replay copies): network seed ^ 0x77, fault plan seed ^ 0xFA11, tree
  // seed ^ 0xA5A5A5A5 (inside Deployment). One admitted snapshot query must
  // equal MINT driven directly on a network and churn engine built from
  // those seeds — answers and per-epoch messages — with and without churn.
  for (bool with_churn : {false, true}) {
    SCOPED_TRACE(with_churn ? "churn" : "clean");
    QueryCoordinator::Options opt = SmallRun(20, 42);
    opt.loss_prob = 0.05;
    opt.max_retries = 1;
    opt.enable_churn = with_churn;
    opt.churn.crash_prob = 0.01;
    opt.churn.mean_downtime = 5;
    QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5), opt);
    ASSERT_TRUE(coordinator.Admit(kSnapshotSql).ok());
    ASSERT_TRUE(coordinator.Open().ok());
    std::vector<uint64_t> session_msgs;
    for (size_t e = 0; e < opt.epochs; ++e) {
      auto step = coordinator.StepEpoch();
      ASSERT_TRUE(step.ok());
      session_msgs.push_back(step.value().epoch_cost.messages);
    }
    auto report = coordinator.Close();
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report.value().outcomes.size(), 1u);
    const QueryOutcome& outcome = report.value().outcomes[0];
    EXPECT_EQ(outcome.algorithm, "MINT");

    const Deployment deployment(Scenario::ConferenceFloor(6, 3, 5), opt.seed);
    sim::RoutingTree tree = deployment.tree;
    sim::Network net(&deployment.topology, &tree, RadioOptionsFrom(opt),
                     util::Rng(opt.seed ^ 0x77));
    auto gen = deployment.DefaultGenerator(opt.seed);
    core::MintViews mint(&net, gen.get(),
                         SpecFromQuery(query::Parse(kSnapshotSql).value(), deployment.scenario));
    std::unique_ptr<fault::ChurnEngine> churn;
    if (with_churn) {
      fault::FaultPlanOptions plan_opt = opt.churn;
      plan_opt.horizon = static_cast<sim::Epoch>(opt.epochs);
      churn = std::make_unique<fault::ChurnEngine>(
          &net, &tree, fault::FaultPlan::Generate(deployment.topology, plan_opt,
                                                  opt.seed ^ 0xFA11));
    }
    std::vector<core::TopKResult> direct;
    std::vector<uint64_t> direct_msgs;
    for (sim::Epoch e = 0; e < opt.epochs; ++e) {
      sim::TrafficCounters before = net.total();
      if (churn) {
        fault::ChurnReport churn_report = churn->BeginEpoch(e);
        if (churn_report.topology_changed) mint.OnTopologyChanged(churn_report.delta);
      }
      direct.push_back(mint.RunEpoch(e));
      direct_msgs.push_back(net.total().Since(before).messages);
    }
    EXPECT_EQ(EpochDigest(outcome.per_epoch), EpochDigest(direct));
    EXPECT_EQ(session_msgs, direct_msgs);
    EXPECT_EQ(report.value().total.payload_bytes, net.total().payload_bytes);
    if (with_churn) {
      EXPECT_GT(report.value().repair_events, 0u);
    }
  }
}

TEST(CoordinatorTest, IdenticalSnapshotQueriesShareOneOperator) {
  // 8 identical snapshot queries piggyback on ONE operator: one
  // converge-cast per epoch, so the whole fleet pays what a single query
  // pays, and every member reads the same ranked answers.
  QueryCoordinator single(Scenario::ConferenceFloor(6, 3, 5), SmallRun(15));
  ASSERT_TRUE(single.Admit(kSnapshotSql).ok());
  auto single_report = single.Run();
  ASSERT_TRUE(single_report.ok());

  QueryCoordinator fleet(Scenario::ConferenceFloor(6, 3, 5), SmallRun(15));
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(fleet.Admit(kSnapshotSql).ok());
  auto fleet_report = fleet.Run();
  ASSERT_TRUE(fleet_report.ok());

  EXPECT_EQ(fleet_report.value().operators, 1u);
  EXPECT_EQ(fleet_report.value().queries, 8u);
  // The shared plane's total bill equals the single-query bill exactly.
  EXPECT_EQ(fleet_report.value().total.messages, single_report.value().total.messages);
  EXPECT_EQ(fleet_report.value().total.payload_bytes,
            single_report.value().total.payload_bytes);
  ASSERT_EQ(fleet_report.value().outcomes.size(), 8u);
  for (const QueryOutcome& outcome : fleet_report.value().outcomes) {
    EXPECT_EQ(outcome.share_group_size, 8u);
    EXPECT_EQ(EpochDigest(outcome.per_epoch),
              EpochDigest(fleet_report.value().outcomes[0].per_epoch));
    EXPECT_EQ(outcome.per_epoch.size(), 15u);
  }
}

TEST(CoordinatorTest, ShareDisabledDrivesOneOperatorPerQuery) {
  QueryCoordinator::Options opt = SmallRun(8);
  opt.share_operators = false;
  QueryCoordinator coordinator(Scenario::ConferenceFloor(4, 3, 5), opt);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(coordinator.Admit(kSnapshotSql).ok());
  auto report = coordinator.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().operators, 4u);
  for (const QueryOutcome& outcome : report.value().outcomes) {
    EXPECT_EQ(outcome.share_group_size, 1u);
  }
}

TEST(CoordinatorTest, MixedClassesAllServedOnOneDeployment) {
  QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5), SmallRun(12));
  ASSERT_TRUE(coordinator.Admit(kSnapshotSql).ok());
  ASSERT_TRUE(coordinator.Admit(kSelectSql).ok());
  ASSERT_TRUE(coordinator.Admit(kGroupedSelectSql).ok());
  ASSERT_TRUE(coordinator.Admit(kVerticalSql).ok());
  ASSERT_TRUE(coordinator.Admit(kHorizontalSql).ok());
  ASSERT_TRUE(coordinator.Admit(kSnapshotSql).ok());  // piggybacks on the first

  auto report_or = coordinator.Run();
  ASSERT_TRUE(report_or.ok());
  const CoordinatorReport& report = report_or.value();
  EXPECT_EQ(report.queries, 6u);
  EXPECT_EQ(report.operators, 5u);  // the duplicate snapshot shares

  ASSERT_EQ(report.outcomes.size(), 6u);
  EXPECT_EQ(report.outcomes[0].algorithm, "MINT");
  EXPECT_EQ(report.outcomes[0].per_epoch.size(), 12u);
  EXPECT_EQ(report.outcomes[0].share_group_size, 2u);
  EXPECT_EQ(report.outcomes[1].algorithm, "SELECT");
  EXPECT_EQ(report.outcomes[1].rows_per_epoch.size(), 12u);
  EXPECT_EQ(report.outcomes[2].algorithm, "TAG");
  // A grouped basic select reports every group every epoch.
  for (const auto& epoch : report.outcomes[2].per_epoch) {
    EXPECT_EQ(epoch.items.size(), 6u);
  }
  EXPECT_EQ(report.outcomes[3].algorithm, "TJA");
  EXPECT_EQ(report.outcomes[3].historic.items.size(), 3u);
  EXPECT_EQ(report.outcomes[4].algorithm, "MINT+history");
  EXPECT_EQ(report.outcomes[4].per_epoch.size(), 12u);
  EXPECT_EQ(report.outcomes[5].share_group_size, 2u);
  EXPECT_EQ(EpochDigest(report.outcomes[5].per_epoch),
            EpochDigest(report.outcomes[0].per_epoch));

  // Every operator's attributed traffic is accounted inside the shared
  // total (repair traffic and nothing else lives outside the groups here).
  uint64_t attributed = 0;
  for (size_t i = 0; i < report.outcomes.size(); ++i) {
    if (report.outcomes[i].share_group_size == 2 && i == 5) continue;  // counted at [0]
    attributed += report.outcomes[i].shared_cost.messages;
  }
  EXPECT_EQ(attributed, report.total.messages);
}

TEST(CoordinatorTest, RunIsDeterministicAndRepeatable) {
  auto build = [] {
    QueryCoordinator::Options opt = SmallRun(15, 77);
    opt.loss_prob = 0.05;
    opt.max_retries = 1;
    opt.battery_j = 0.5;
    opt.enable_churn = true;
    opt.churn.crash_prob = 0.01;
    opt.churn.mean_downtime = 6;
    return QueryCoordinator(Scenario::ConferenceFloor(6, 3, 5), opt);
  };
  QueryCoordinator a = build();
  QueryCoordinator b = build();
  for (QueryCoordinator* c : {&a, &b}) {
    ASSERT_TRUE(c->Admit(kSnapshotSql).ok());
    ASSERT_TRUE(c->Admit(kSelectSql).ok());
    ASSERT_TRUE(c->Admit(kVerticalSql).ok());
  }
  auto ra1 = a.Run();
  auto ra2 = a.Run();  // a second Run over the same admissions
  auto rb = b.Run();
  ASSERT_TRUE(ra1.ok());
  ASSERT_TRUE(ra2.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ReportDigest(ra1.value()), ReportDigest(ra2.value()));
  EXPECT_EQ(ReportDigest(ra1.value()), ReportDigest(rb.value()));
}

TEST(CoordinatorTest, ChurnRepairsSharedTreeOnceForAllQueries) {
  QueryCoordinator::Options opt = SmallRun(40, 21);
  opt.enable_churn = true;
  opt.churn.crash_prob = 0.02;
  opt.churn.mean_downtime = 8;
  QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5), opt);
  ASSERT_TRUE(coordinator.Admit(kSnapshotSql).ok());
  ASSERT_TRUE(coordinator.Admit(kGroupedSelectSql).ok());
  auto report_or = coordinator.Run();
  ASSERT_TRUE(report_or.ok());
  const CoordinatorReport& report = report_or.value();
  // The shared tree was repaired (once per epoch, for everyone): repair
  // traffic exists and is exactly the slice of the total outside the
  // operator groups.
  EXPECT_GT(report.repair_events, 0u);
  EXPECT_GT(report.repair_messages, 0u);
  uint64_t attributed = 0;
  for (const QueryOutcome& outcome : report.outcomes) {
    attributed += outcome.shared_cost.messages;
  }
  EXPECT_EQ(report.total.messages, attributed + report.repair_messages);
  // Both queries kept producing answers through the churn.
  for (const QueryOutcome& outcome : report.outcomes) {
    EXPECT_EQ(outcome.per_epoch.size(), 40u);
  }
}

TEST(CoordinatorTest, EmptyAdmissionSetRunsCleanly) {
  QueryCoordinator coordinator(Scenario::ConferenceFloor(4, 3, 5), SmallRun(5));
  auto report = coordinator.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().queries, 0u);
  EXPECT_EQ(report.value().operators, 0u);
  EXPECT_EQ(report.value().total.messages, 0u);
}

}  // namespace
}  // namespace kspot::system
