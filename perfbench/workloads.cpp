// The three workloads. Each is a pure function of its seed: scenario
// geometry, SQL strings and the subscribe/cancel schedule.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace ks = kspot::system;

namespace {

const char* const kAggs[] = {"AVG", "MAX", "MIN", "SUM"};

std::string TopK(int k, const char* agg, const char* group) {
  return "SELECT TOP " + std::to_string(k) + " " + group + ", " + agg + "(sound) FROM sensors " +
         "GROUP BY " + group;
}

/// A query as its class plus the parameters its SQL is made of.
struct Spec {
  QueryKind kind = QueryKind::kTopK;
  int k = 1;
  int agg = 0;           ///< Index into kAggs (vertical: AVG or SUM only).
  bool by_node = false;  ///< kTopK: GROUP BY nodeid instead of roomid.
  int literal = 0;       ///< kWhereSelect: > literal, or < -literal if negative.
  int window = 0;        ///< kVertical / kHorizontal.

  QueryText Text() const {
    std::string history = " WITH HISTORY " + std::to_string(window);
    switch (kind) {
      case QueryKind::kTopK:
        return {TopK(k, kAggs[agg], by_node ? "nodeid" : "roomid"), kind};
      case QueryKind::kWhereSelect:
        return {"SELECT nodeid, sound FROM sensors WHERE sound " +
                    std::string(literal > 0 ? "> " : "< ") + std::to_string(std::abs(literal)),
                kind};
      case QueryKind::kGroupedSelect:
        return {std::string("SELECT roomid, ") + kAggs[agg] + "(sound) FROM sensors GROUP BY roomid",
                kind};
      case QueryKind::kVertical:
        return {TopK(k, kAggs[agg], "epoch") + history, kind};
      case QueryKind::kHorizontal:
        return {TopK(k, kAggs[agg], "roomid") + history, kind};
    }
    return {};
  }

  /// The fresh spec admitted when this one's tenant retires: same class,
  /// grouping, predicate direction and window; next K, aggregate, literal.
  Spec Successor() const {
    Spec next = *this;
    bool historic = kind == QueryKind::kVertical || kind == QueryKind::kHorizontal;
    next.k = k % (historic ? 3 : 5) + 1;
    next.agg = kind == QueryKind::kVertical ? 3 - agg : (agg + 1) % 4;
    next.literal = literal + (literal > 0 ? 5 : -5);
    return next;
  }
};

template <typename T>
void Shuffle(std::vector<T>* v, InputRng& rng) {
  for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[rng.Below(i)]);
}

std::vector<Spec> RoomTopK(std::initializer_list<std::pair<int, int>> k_agg) {
  std::vector<Spec> out;
  for (auto [k, agg] : k_agg) out.push_back({QueryKind::kTopK, k, agg});
  return out;
}

/// The mixed workload's 64 tenants over 44 distinct specs, spanning every
/// query class with varied K, aggregate, predicate and window. The list is
/// fixed so every seed runs the same mix (and cost); the seed orders it,
/// which also decides which tenants retire.
std::vector<Spec> MixedTenants(InputRng& rng) {
  using K = QueryKind;
  std::vector<Spec> distinct = RoomTopK(
      {{1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 0}, {5, 1}});
  const size_t room_topk = distinct.size();
  for (auto [k, agg] : {std::pair{1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 0}, {1, 1}, {2, 2}}) {
    distinct.push_back({K::kTopK, k, agg, /*by_node=*/true});
  }
  for (int literal : {50, 60, 70, 80, -50, -60, -70, -80}) {
    distinct.push_back({K::kWhereSelect, 0, 0, false, literal});
  }
  for (int agg = 0; agg < 4; ++agg) distinct.push_back({K::kGroupedSelect, 0, agg});
  for (int window : {16, 64}) {
    for (auto [k, agg] : {std::pair{1, 0}, {2, 3}, {3, 0}, {1, 3}}) {
      distinct.push_back({K::kVertical, k, agg, false, 0, window});
    }
  }
  for (auto [k, agg] : {std::pair{1, 0}, {2, 1}, {3, 2}, {1, 3}}) {
    distinct.push_back({K::kHorizontal, k, agg, false, 0, 16});
  }
  for (auto [k, agg] : {std::pair{2, 0}, {3, 1}, {1, 2}}) {
    distinct.push_back({K::kHorizontal, k, agg, false, 0, 64});
  }
  // Second riders: every room TOP-k, and one spec of each other shape.
  std::vector<Spec> tenants = distinct;
  tenants.insert(tenants.end(), distinct.begin(), distinct.begin() + room_topk);
  for (size_t i : {10, 11, 18, 22, 25, 26, 29, 33, 37, 41}) tenants.push_back(distinct[i]);
  Shuffle(&tenants, rng);
  return tenants;
}

/// Room TOP-k specs of every (K, aggregate) pair not in `exclude`, in seeded
/// order: the live-admit probe, each admit creating an operator of the same
/// shape.
std::vector<QueryText> ProbeSpecs(InputRng& rng, const std::vector<QueryText>& exclude) {
  std::vector<QueryText> out;
  for (int k = 1; k <= 5; ++k) {
    for (int agg = 0; agg < 4; ++agg) {
      QueryText q = Spec{QueryKind::kTopK, k, agg}.Text();
      bool used = false;
      for (const QueryText& e : exclude) used = used || e.sql == q.sql;
      if (!used) out.push_back(q);
    }
  }
  Shuffle(&out, rng);
  out.resize(std::min<size_t>(out.size(), 16));
  return out;
}

/// n sensors at constant density (one per 100 m^2): a jittered grid over a
/// square field of side 10*sqrt(n) m, so the disc graph at 18 m is connected
/// and the mean degree stays ~10 whatever n is. 64 grid rooms tile the
/// field; the sink sits at the center.
ks::Scenario ConstantDensityBed(size_t n, InputRng& rng) {
  ks::Scenario s;
  s.name = "constant-density";
  double side = 10.0 * std::sqrt(static_cast<double>(n));
  s.field_w = side;
  s.field_h = side;
  s.comm_range = 18.0;
  constexpr size_t kRoomsPerSide = 8;
  for (size_t r = 0; r < kRoomsPerSide * kRoomsPerSide; ++r) {
    s.cluster_names[static_cast<kspot::sim::GroupId>(r)] = "cell" + std::to_string(r);
  }
  auto room_of = [&](double x, double y) {
    size_t cx = std::min(kRoomsPerSide - 1, static_cast<size_t>(x / side * kRoomsPerSide));
    size_t cy = std::min(kRoomsPerSide - 1, static_cast<size_t>(y / side * kRoomsPerSide));
    return static_cast<kspot::sim::GroupId>(cy * kRoomsPerSide + cx);
  };
  s.nodes.push_back({0, side / 2, side / 2, room_of(side / 2, side / 2)});
  size_t cols = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  double cell = side / static_cast<double>(cols);
  for (size_t i = 0; i < n; ++i) {
    double x = (static_cast<double>(i % cols) + 0.25 + 0.5 * rng.Uniform()) * cell;
    double y = (static_cast<double>(i / cols) + 0.25 + 0.5 * rng.Uniform()) * cell;
    x = std::min(x, side);
    y = std::min(y, side);
    s.nodes.push_back({static_cast<kspot::sim::NodeId>(i + 1), x, y, room_of(x, y)});
  }
  return s;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"fanout_dashboards", "mixed_tenants_churn",
                                                  "large_bed_churn"};
  return kNames;
}

bool MakeWorkload(const std::string& name, uint64_t seed, bool tiny, Workload* out) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.options.seed = seed;
  InputRng rng(seed ^ 0x5E55105EEDULL);
  if (name == "fanout_dashboards") {
    // 64 dashboards over 4 distinct snapshot specs (4 operator groups) and
    // 2e5 subscribers, 1% of whom drop and resubscribe every epoch.
    w.scenario = ks::Scenario::ConferenceFloor(16, 16, seed);
    w.epochs = tiny ? 20 : 1000;
    std::vector<QueryText> specs;
    for (const Spec& spec : RoomTopK({{2, 0}, {3, 1}, {1, 2}, {5, 3}})) specs.push_back(spec.Text());
    Shuffle(&specs, rng);
    for (size_t i = 0; i < 64; ++i) w.initial.push_back(specs[i % specs.size()]);
    w.subscribers = tiny ? 2000 : 200000;
    w.resubscribe_fraction = 0.01;
    w.probe = ProbeSpecs(rng, specs);
  } else if (name == "mixed_tenants_churn") {
    // 64 tenants across every query class on a lossy, churning floor, one
    // subscriber each; every 10 epochs the oldest query is cancelled and a
    // fresh one of the same shape admitted.
    w.scenario = ks::Scenario::ConferenceFloor(32, 16, seed);
    w.epochs = tiny ? 20 : 300;
    w.options.loss_prob = 0.05;
    w.options.max_retries = 2;
    w.options.enable_churn = true;
    w.options.churn.crash_prob = 0.01;
    w.options.churn.mean_downtime = 10;
    w.options.historic.continuous = true;
    std::vector<Spec> tenants = MixedTenants(rng);
    for (const Spec& spec : tenants) w.initial.push_back(spec.Text());
    w.subscribers = w.initial.size();
    w.replace_every = 10;
    // The i-th replacement retires initial[i] and admits its successor.
    for (size_t e = w.replace_every, i = 0; e < w.epochs && i < tenants.size();
         e += w.replace_every, ++i) {
      w.fresh.push_back(tenants[i].Successor().Text());
    }
  } else if (name == "large_bed_churn") {
    // 2e4 sensors at constant density under crashes and recoveries: set-up,
    // tree repair and MINT's incremental repair dominate. With a mean
    // downtime of 20 epochs about 4% of the sensors are down at any time,
    // so the per-epoch cost is stationary over the 300-epoch pass.
    w.scenario = ConstantDensityBed(tiny ? 400 : 20000, rng);
    w.epochs = tiny ? 10 : 300;
    w.options.enable_churn = true;
    w.options.churn.crash_prob = 0.002;
    w.options.churn.mean_downtime = 20;
    w.initial.push_back(
        {"SELECT TOP 5 roomid, AVG(sound) FROM sensors GROUP BY roomid", QueryKind::kTopK});
    w.subscribers = 16;
    w.probe = ProbeSpecs(rng, w.initial);
  } else {
    return false;
  }
  w.options.epochs = w.epochs;
  *out = std::move(w);
  return true;
}

}  // namespace perfbench
