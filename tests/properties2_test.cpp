#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/fila.hpp"
#include "core/oracle.hpp"
#include "query/parser.hpp"
#include "sim/waves.hpp"
#include "test_util.hpp"

namespace kspot {
namespace {

using kspot::testing::TestBed;

// =====================================================================
// Property suite 5: SQL round trip — Parse(q.ToSql()) is equivalent to q.
// =====================================================================

class SqlRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SqlRoundTripTest, ToSqlReparsesEquivalently) {
  auto first = query::Parse(GetParam());
  ASSERT_TRUE(first.ok()) << first.status().message();
  std::string sql = first.value().ToSql();
  auto second = query::Parse(sql);
  ASSERT_TRUE(second.ok()) << "re-parse of '" << sql << "': " << second.status().message();
  const query::ParsedQuery& a = first.value();
  const query::ParsedQuery& b = second.value();
  EXPECT_EQ(a.top_k, b.top_k);
  EXPECT_EQ(a.group_by, b.group_by);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.has_where, b.has_where);
  EXPECT_DOUBLE_EQ(a.epoch_duration_s, b.epoch_duration_s);
  ASSERT_EQ(a.select.size(), b.select.size());
  for (size_t i = 0; i < a.select.size(); ++i) {
    EXPECT_EQ(a.select[i].attribute, b.select[i].attribute);
    EXPECT_EQ(a.select[i].aggregate, b.select[i].aggregate);
  }
  if (a.has_where) {
    EXPECT_EQ(a.where.attribute, b.where.attribute);
    EXPECT_EQ(a.where.op, b.where.op);
    EXPECT_DOUBLE_EQ(a.where.literal, b.where.literal);
  }
  // Canonical text is a fixed point.
  EXPECT_EQ(b.ToSql(), sql);
}

INSTANTIATE_TEST_SUITE_P(
    Queries, SqlRoundTripTest,
    ::testing::Values(
        "SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid "
        "EPOCH DURATION 1 min",
        "SELECT TOP 5 epoch, AVG(temperature) FROM sensors GROUP BY epoch WITH HISTORY 64",
        "SELECT nodeid, sound FROM sensors WHERE sound >= 12.5",
        "SELECT sound FROM sensors EPOCH DURATION 500 ms",
        "SELECT TOP 3 roomid, MAX(light) FROM sensors GROUP BY roomid",
        "SELECT roomid, MIN(humidity) FROM sensors WHERE humidity != 0 GROUP BY roomid"));

// =====================================================================
// Property suite 6: cluster-aware trees close groups lower than plain
// first-heard trees (the structural property MINT exploits).
// =====================================================================

// Number of rooms whose members all live inside one child-subtree of the
// sink or deeper (i.e. the room "closes" strictly below the sink).
size_t RoomsClosedBelowSink(const sim::Topology& topo, const sim::RoutingTree& tree) {
  size_t closed = 0;
  for (sim::GroupId room : topo.DistinctRooms()) {
    auto members = topo.NodesInRoom(room);
    // Find each member's ancestor chain; the room closes below the sink iff
    // all members share the same depth-1 ancestor.
    std::set<sim::NodeId> depth1;
    for (sim::NodeId m : members) {
      sim::NodeId cur = m;
      while (tree.parent(cur) != sim::kSinkId && tree.parent(cur) != sim::kNoNode) {
        cur = tree.parent(cur);
      }
      depth1.insert(cur);
    }
    if (depth1.size() == 1) ++closed;
  }
  return closed;
}

TEST(ClusterTreeProperty, ClusterAwareTreesCloseMoreRoomsBelowSink) {
  size_t aware_total = 0;
  size_t plain_total = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    sim::TopologyOptions opt;
    opt.num_nodes = 61;
    opt.num_rooms = 6;
    util::Rng topo_rng(seed);
    sim::Topology topo = sim::MakeClusteredRooms(opt, topo_rng);
    util::Rng rng_a(seed * 3 + 1);
    util::Rng rng_b(seed * 3 + 1);
    sim::RoutingTree aware = sim::RoutingTree::BuildClusterAware(topo, rng_a);
    sim::RoutingTree plain = sim::RoutingTree::BuildFirstHeard(topo, rng_b);
    aware_total += RoomsClosedBelowSink(topo, aware);
    plain_total += RoomsClosedBelowSink(topo, plain);
  }
  EXPECT_GT(aware_total, plain_total);
}

TEST(ClusterTreeProperty, ClusterAwareTreeIsStillAValidTree) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    sim::TopologyOptions opt;
    opt.num_nodes = 49;
    opt.num_rooms = 8;
    util::Rng topo_rng(seed);
    sim::Topology topo = sim::MakeClusteredRooms(opt, topo_rng);
    auto adj = topo.BuildAdjacency();
    util::Rng rng(seed);
    sim::RoutingTree tree = sim::RoutingTree::BuildClusterAware(topo, rng);
    for (sim::NodeId id = 1; id < topo.num_nodes(); ++id) {
      sim::NodeId p = tree.parent(id);
      ASSERT_NE(p, sim::kNoNode) << "node " << id << " orphaned (seed " << seed << ")";
      // Parent must be a radio neighbor.
      EXPECT_NE(std::find(adj[id].begin(), adj[id].end(), p), adj[id].end());
      // Depth decreases toward the sink.
      EXPECT_EQ(tree.depth(id), tree.depth(p) + 1);
    }
  }
}

// =====================================================================
// Property suite 7: FILA set-exactness across k on drift-free data.
// =====================================================================

class FilaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FilaPropertyTest, ExactSetOnSlowData) {
  int k = GetParam();
  auto bed = TestBed::Grid(36, 4, 7000 + static_cast<uint64_t>(k));
  // Fine-grained (unquantized) walks keep exact boundary ties measure-rare,
  // so the set-exactness property is clean.
  data::RandomWalkGenerator gen(36, data::Modality::kSound, 0.3, util::Rng(k * 11 + 1));
  data::RandomWalkGenerator ogen(36, data::Modality::kSound, 0.3, util::Rng(k * 11 + 1));
  core::QuerySpec spec;
  spec.k = k;
  spec.agg = agg::AggKind::kAvg;
  spec.grouping = core::Grouping::kNode;
  spec.domain_max = 100.0;
  core::Fila fila(bed.net.get(), &gen, spec);
  core::Oracle oracle(&bed.topology, &ogen, spec);
  size_t exact = 0;
  const size_t kEpochs = 30;
  for (sim::Epoch e = 0; e < kEpochs; ++e) {
    auto got = fila.RunEpoch(e);
    auto want = oracle.TopK(e);
    std::set<sim::GroupId> gs, ws;
    for (const auto& item : got.items) gs.insert(item.group);
    for (const auto& item : want.items) ws.insert(item.group);
    exact += gs == ws;
  }
  // The rare remaining mismatches are exact fixed-point boundary ties where
  // FILA's cached ordering may differ from the oracle's id tie-break.
  EXPECT_GE(exact, kEpochs - 2) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FilaPropertyTest, ::testing::Values(1, 2, 5, 10));

// =====================================================================
// Property suite 8: dissemination under loss — a DownWave reaches exactly
// the connected prefix of the tree, and loss never corrupts delivery.
// =====================================================================

TEST(DownWaveLossProperty, ReachedSetIsAncestorClosed) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    sim::NetworkOptions opt;
    opt.loss_prob = 0.3;
    auto bed = TestBed::Grid(49, 4, 9000 + seed, opt);
    std::set<sim::NodeId> reached;
    using Msg = int;
    auto produce = [&](sim::NodeId node, const Msg*) -> std::optional<Msg> {
      reached.insert(node);
      return 1;
    };
    auto bytes = [](const Msg&) -> size_t { return 4; };
    size_t count = sim::DownWave<Msg>::Run(*bed.net, produce, bytes);
    EXPECT_EQ(count, reached.size());
    EXPECT_TRUE(reached.count(sim::kSinkId));
    // Ancestor-closure: if a node was reached, its parent was too.
    for (sim::NodeId node : reached) {
      if (node == sim::kSinkId) continue;
      EXPECT_TRUE(reached.count(bed.tree.parent(node)))
          << "node " << node << " reached without its parent (seed " << seed << ")";
    }
  }
}

}  // namespace
}  // namespace kspot
