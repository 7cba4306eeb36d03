// One closed-loop pass over the public serving path, with its answer checks
// and the spans the traced run records around each library call.
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "core/oracle.hpp"
#include "kspot/fanout.hpp"
#include "query/parser.hpp"

namespace perfbench {

namespace ks = kspot::system;

size_t Tracer::Begin(const char* name, uint64_t count) {
  spans_.push_back({name, 0, 0, count});
  spans_.back().start_ns = NowNs();
  return spans_.size() - 1;
}

void Tracer::End(size_t span) { spans_[span].end_ns = NowNs(); }

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

void Tracer::Totals(const std::string& name, double* ns, uint64_t* calls) const {
  *ns = 0.0;
  *calls = 0;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    *ns += static_cast<double>(s.end_ns - s.start_ns);
    *calls += s.count;
  }
}

namespace {

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// An admitted query as the benchmark tracks it.
struct Tenant {
  ks::QueryId id = 0;
  const QueryText* text = nullptr;
  std::vector<ks::SubscriberId> subs;
  bool live = true;
};

bool Ranked(QueryKind kind) {
  return kind == QueryKind::kTopK || kind == QueryKind::kGroupedSelect;
}

}  // namespace

PassResult RunSessionPass(const Workload& w, Tracer* tr) {
  PassResult r;
  uint64_t digest = 0xCBF29CE484222325ULL;
  auto check = [&r](bool ok, const std::string& what) {
    ++r.attempted;
    if (!ok) {
      ++r.failed;
      if (r.errors.size() < 8) r.errors.push_back(what);
    }
    return ok;
  };

  std::vector<Tenant> tenants;
  std::unordered_map<ks::QueryId, size_t> tenant_of;

  // ---------------------------------------------------------------- set-up
  ks::Scenario scenario = w.scenario;
  std::unique_ptr<ks::QueryCoordinator> coord;
  std::unique_ptr<ks::FanOutHub> hub;
  const uint64_t setup_start = NowNs();
  {
    {
      ScopedSpan span(tr, "kspot.deployment");
      coord = std::make_unique<ks::QueryCoordinator>(std::move(scenario), w.options);
    }
    for (const QueryText& q : w.initial) {
      kspot::util::StatusOr<ks::QueryId> id = coord->Admit(q.sql);
      if (!check(id.ok(), "admit " + q.sql)) continue;
      tenant_of[id.value()] = tenants.size();
      tenants.push_back({id.value(), &q, {}, true});
    }
    {
      ScopedSpan span(tr, "kspot.open");
      check(coord->Open().ok(), "open");
    }
    hub = std::make_unique<ks::FanOutHub>(coord.get());
    ScopedSpan span(tr, "kspot.subscribe", w.subscribers);
    for (size_t i = 0; i < w.subscribers && !tenants.empty(); ++i) {
      Tenant& t = tenants[i % tenants.size()];
      kspot::util::StatusOr<ks::SubscriberId> sub = hub->Subscribe(t.id);
      if (check(sub.ok(), "subscribe")) t.subs.push_back(sub.value());
    }
  }
  r.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;

  // The checker's own state, built outside every timed region: one oracle
  // per ranked SQL string over a replay of the shared data wave.
  const ks::Deployment& deployment = coord->deployment();
  std::unique_ptr<kspot::data::DataGenerator> truth_gen = deployment.DefaultGenerator(w.seed);
  std::map<std::string, std::unique_ptr<kspot::core::Oracle>> oracles;
  auto oracle_for = [&](const std::string& sql) -> kspot::core::Oracle& {
    auto it = oracles.find(sql);
    if (it != oracles.end()) return *it->second;
    kspot::util::StatusOr<kspot::query::ParsedQuery> parsed = kspot::query::Parse(sql);
    kspot::core::QuerySpec spec = ks::SpecFromQuery(parsed.value(), deployment.scenario);
    auto made = std::make_unique<kspot::core::Oracle>(&deployment.topology, truth_gen.get(), spec);
    return *oracles.emplace(sql, std::move(made)).first->second;
  };
  // Subscription slots cycled by the resubscribe schedule: (tenant, index).
  std::vector<std::pair<size_t, size_t>> slots;
  for (size_t ti = 0; ti < tenants.size(); ++ti) {
    for (size_t si = 0; si < tenants[ti].subs.size(); ++si) slots.emplace_back(ti, si);
  }
  InputRng schedule(w.seed ^ 0xC4A27E5ULL);
  size_t next_fresh = 0;
  size_t oldest = 0;
  const size_t resubscribe =
      static_cast<size_t>(std::llround(static_cast<double>(w.subscribers) * w.resubscribe_fraction));

  // ---------------------------------------------------------------- epochs
  for (size_t e = 0; e < w.epochs; ++e) {
    const uint64_t epoch_start = NowNs();
    kspot::util::StatusOr<ks::EpochUpdate> step = kspot::util::Status::Error("not run");
    size_t delivered = 0;
    if (w.replace_every != 0 && e != 0 && e % w.replace_every == 0 &&
        next_fresh < w.fresh.size()) {
      // Control-plane write: retire the oldest tenant, admit a fresh one.
      while (oldest < tenants.size() && !tenants[oldest].live) ++oldest;
      if (oldest < tenants.size()) {
        Tenant& t = tenants[oldest];
        for (ks::SubscriberId s : t.subs) check(hub->Unsubscribe(s).ok(), "unsubscribe");
        t.subs.clear();
        check(coord->Cancel(t.id).ok(), "cancel");
        t.live = false;
      }
      const QueryText& q = w.fresh[next_fresh++];
      const uint64_t admit_start = NowNs();
      kspot::util::StatusOr<ks::QueryId> id = [&] {
        ScopedSpan span(tr, "kspot.admit");
        return coord->Admit(q.sql);
      }();
      r.admit_ms.push_back(static_cast<double>(NowNs() - admit_start) / 1e6);
      if (check(id.ok(), "admit " + q.sql)) {
        tenant_of[id.value()] = tenants.size();
        tenants.push_back({id.value(), &q, {}, true});
        ScopedSpan span(tr, "kspot.subscribe");
        kspot::util::StatusOr<ks::SubscriberId> sub = hub->Subscribe(id.value());
        if (check(sub.ok(), "subscribe")) tenants.back().subs.push_back(sub.value());
      }
    }
    if (resubscribe != 0 && !slots.empty()) {
      for (size_t j = 0; j < resubscribe; ++j) {
        auto [ti, si] = slots[schedule.Below(slots.size())];
        Tenant& t = tenants[ti];
        check(hub->Unsubscribe(t.subs[si]).ok(), "unsubscribe");
        kspot::util::StatusOr<ks::SubscriberId> sub = hub->Subscribe(t.id);
        if (check(sub.ok(), "resubscribe")) t.subs[si] = sub.value();
      }
    }
    {
      ScopedSpan span(tr, "kspot.step");
      step = coord->StepEpoch();
    }
    if (step.ok()) {
      ScopedSpan span(tr, "kspot.publish");
      delivered = hub->Publish(step.value());
    }
    const double epoch_ms = static_cast<double>(NowNs() - epoch_start) / 1e6;
    r.epoch_ms.push_back(epoch_ms);
    if (!check(step.ok(), "step epoch " + std::to_string(e))) {
      r.epoch_msgs.push_back(0);
      continue;
    }

    // ------------------------------------------- checks (outside the clock)
    const uint64_t check_start = NowNs();
    const ks::EpochUpdate& update = step.value();
    r.epoch_msgs.push_back(update.epoch_cost.messages);
    r.cost.Add(update.epoch_cost);
    r.deliveries += delivered;
    size_t ops = coord->active_operators();
    r.operators_sum += static_cast<double>(ops);
    r.share_sum += ops == 0 ? 0.0
                            : static_cast<double>(coord->active_queries()) /
                                  static_cast<double>(ops);
    digest = Mix(digest, update.epoch);
    digest = Mix(digest, update.epoch_cost.messages);
    digest = Mix(digest, update.epoch_cost.payload_bytes);
    digest = Mix(digest, Bits(update.epoch_cost.energy_j()));
    digest = Mix(digest, delivered);
    size_t expected = 0;
    for (const ks::GroupUpdate& gu : update.groups) {
      digest = Mix(digest, gu.group_id);
      digest = Mix(digest, gu.ran ? 1 : 0);
      if (!gu.ran || gu.members.empty()) continue;
      const Tenant* first = nullptr;
      for (ks::QueryId m : gu.members) {
        auto it = tenant_of.find(m);
        if (!check(it != tenant_of.end(), "unknown member")) continue;
        const Tenant& t = tenants[it->second];
        if (first == nullptr) first = &t;
        expected += t.subs.size();
        if (w.loss_free() && gu.result != nullptr && !t.subs.empty()) {
          check(hub->Latest(t.subs.front()) == gu.result, "delivered view is not the result");
        }
      }
      if (gu.rows != nullptr) {
        digest = Mix(digest, gu.rows->size());
        for (const kspot::core::SelectTuple& row : *gu.rows) {
          digest = Mix(digest, row.node);
          digest = Mix(digest, Bits(row.value));
        }
      }
      if (gu.result == nullptr) continue;
      for (const kspot::agg::RankedItem& item : gu.result->items) {
        digest = Mix(digest, item.group);
        digest = Mix(digest, Bits(item.value));
      }
      if (first == nullptr || !Ranked(first->text->kind)) continue;
      kspot::core::TopKResult truth = oracle_for(first->text->sql).TopK(update.epoch);
      r.recall_sum += gu.result->RecallAgainst(truth);
      ++r.recall_n;
      // Without loss or churn the exact operators must match the oracle.
      if (w.loss_free() && !w.options.enable_churn) {
        check(gu.result->Matches(truth), "epoch " + std::to_string(e) + " answer of " +
                                             first->text->sql + " differs from the oracle");
      }
    }
    check(delivered == expected, "publish returned " + std::to_string(delivered) +
                                     " deliveries, expected " + std::to_string(expected));
    r.oracle_ms += static_cast<double>(NowNs() - check_start) / 1e6;
  }

  // ----------------------------------------------------- live admit probe
  // Three rounds over the same specs: each admit builds a fresh operator
  // (the previous one was released by its cancel), and the median lands on
  // warm-cache admits rather than on the first few after the epoch loop.
  constexpr int kProbeRounds = 3;
  for (int round = 0; round < kProbeRounds; ++round) {
    for (const QueryText& q : w.probe) {
      const uint64_t admit_start = NowNs();
      kspot::util::StatusOr<ks::QueryId> id = [&] {
        ScopedSpan span(tr, "kspot.admit");
        return coord->Admit(q.sql);
      }();
      r.admit_ms.push_back(static_cast<double>(NowNs() - admit_start) / 1e6);
      if (!check(id.ok(), "probe admit " + q.sql)) continue;
      check(coord->Cancel(id.value()).ok(), "probe cancel");
    }
  }

  kspot::util::StatusOr<ks::CoordinatorReport> report = [&] {
    ScopedSpan span(tr, "kspot.close");
    return coord->Close();
  }();
  if (check(report.ok(), "close")) {
    check(report.value().epochs == w.epochs, "close reported a different epoch count");
  }
  r.digest = digest;
  return r;
}

}  // namespace perfbench
