// kspot_perfbench: runs one workload of the session-path benchmark and
// prints its metrics as one JSON line (the last line of stdout).
//
//   kspot_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--tiny]
//
// --trace 0 runs the serving path untraced and prints the end-to-end
// metrics; --trace 1 prints the per-layer metrics from a traced run of the
// same path plus the layer replay. Exit status: 0 when every check passed,
// 1 when a check failed (the JSON then says "correct": false), 2 on usage
// errors (nothing printed on stdout).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace pb = perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--tiny") {
      args->tiny = true;
    } else if (a == "--workload" && value(&v)) {
      args->workload = v;
      have_workload = true;
    } else if (a == "--seed" && value(&v)) {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds" && value(&v)) {
      args->seconds = std::atof(v.c_str());
    } else if (a == "--trace" && value(&v)) {
      args->trace = std::atoi(v.c_str());
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

/// Nearest-rank quantile of `v` (copied; empty -> 0).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(pb::NowNs() - start_ns) / 1e9;
}

/// Everything the serving-path passes of one run produced.
struct Passes {
  std::vector<pb::PassResult> results;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Add(pb::PassResult r) {
    attempted += r.attempted;
    failed += r.failed;
    for (std::string& e : r.errors) errors.push_back(std::move(e));
    if (!results.empty()) {
      ++attempted;
      if (r.digest != results.front().digest) {
        ++failed;
        errors.push_back("pass digest differs from the first pass of the same seed");
      }
    }
    results.push_back(std::move(r));
  }
  /// Latency of each timed step of a pass (`member` picks the epochs or the
  /// live admits), as the fastest of its repetitions across the run's
  /// passes. Every pass replays the same steps, so step i does the same work
  /// in each; other tenants of the host can only add time to it, so the
  /// fastest repetition is the program's own cost.
  std::vector<double> Fastest(std::vector<double> pb::PassResult::*member) const {
    std::vector<double> best = results.front().*member;
    for (const pb::PassResult& r : results) {
      const std::vector<double>& v = r.*member;
      for (size_t i = 0; i < best.size() && i < v.size(); ++i) best[i] = std::min(best[i], v[i]);
    }
    return best;
  }
};

/// Runs at least `min_passes` passes, then more while another one (as long
/// as the last) fits in `budget_s`.
void RunPasses(const pb::Workload& w, double budget_s, size_t min_passes, Passes* passes) {
  const uint64_t start = pb::NowNs();
  double last_s = 0.0;
  while (passes->results.size() < min_passes || SecondsSince(start) + last_s <= budget_s) {
    const uint64_t pass_start = pb::NowNs();
    passes->Add(pb::RunSessionPass(w, nullptr));
    last_s = SecondsSince(pass_start);
  }
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void PrintJson(bool correct, uint64_t attempted, uint64_t failed, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), metrics[i].second.first,
                metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
}

void EndToEnd(const pb::Workload& w, const Args& args, Passes& passes, Metrics* m) {
  RunPasses(w, args.seconds, args.tiny ? 2 : 5, &passes);
  std::vector<double> setup;
  for (const pb::PassResult& r : passes.results) setup.push_back(r.setup_s);
  const std::vector<double> epoch = passes.Fastest(&pb::PassResult::epoch_ms);
  const std::vector<double> admit = passes.Fastest(&pb::PassResult::admit_ms);
  double loop_ms = 0.0;
  for (double x : epoch) loop_ms += x;
  // Simulated figures repeat exactly across passes; report the first's.
  const pb::PassResult& first = passes.results.front();
  const double epochs = static_cast<double>(first.epoch_ms.size());
  const double p95 = Quantile(epoch, 0.95);
  size_t beyond = 0;
  for (double x : epoch) beyond += x > p95 ? 1 : 0;
  std::fprintf(stderr,
               "%s seed=%llu passes=%zu epoch samples=%zu (beyond p95: %zu) admit samples=%zu "
               "digest=%016llx\n",
               w.name.c_str(), static_cast<unsigned long long>(w.seed), passes.results.size(),
               epoch.size(), beyond, admit.size(), static_cast<unsigned long long>(first.digest));
  const double ops = static_cast<double>(passes.attempted);
  *m = {
      {"setup_s", {Median(setup), "s"}},
      {"epochs_per_s", {loop_ms == 0 ? 0.0 : epochs * 1e3 / loop_ms, "1/s"}},
      {"epoch_ms_p50", {Median(epoch), "ms"}},
      {"epoch_ms_p95", {p95, "ms"}},
      {"admit_ms_p50", {Median(admit), "ms"}},
      {"msgs_per_epoch", {static_cast<double>(first.cost.messages) / epochs, "msgs"}},
      {"bytes_per_epoch", {static_cast<double>(first.cost.payload_bytes) / epochs, "B"}},
      {"mj_per_epoch", {first.cost.energy_j() * 1e3 / epochs, "mJ"}},
      {"recall_mean",
       {first.recall_n == 0 ? 1.0 : first.recall_sum / static_cast<double>(first.recall_n),
        "ratio"}},
      {"success_rate", {ops == 0 ? 0.0 : 1.0 - static_cast<double>(passes.failed) / ops, "ratio"}},
      {"peak_rss_mb", {PeakRssMb(), "MB"}},
  };
}

const char* const kPhases[] = {"fault.repair", "mint.create",    "mint.update",
                               "mint.beacon",  "mint.repair",    "tag.collect",
                               "select.collect", "historic.delta"};

void PerLayer(const pb::Workload& w, const Args& args, Passes& passes, Metrics* m) {
  // Untraced and traced passes alternate, so a drift of host speed hits
  // both passes of a pair alike, and every other pair runs the traced pass
  // first, so the order within a pair cancels out. trace.overhead is the
  // median over pairs of traced over untraced epochs per second. The replay
  // gets the rest of the budget.
  Passes untraced;
  pb::Tracer tracer;
  std::vector<double> overhead;
  auto loop_ms = [](const pb::PassResult& r) {
    double sum = 0.0;
    for (double x : r.epoch_ms) sum += x;
    return sum;
  };
  const uint64_t pairs_start = pb::NowNs();
  double pair_s = 0.0;
  do {
    const uint64_t pair_start = pb::NowNs();
    if (overhead.size() % 2 == 0) untraced.Add(pb::RunSessionPass(w, nullptr));
    passes.Add(pb::RunSessionPass(w, &tracer));
    if (overhead.size() % 2 == 1) untraced.Add(pb::RunSessionPass(w, nullptr));
    const double traced_ms = loop_ms(passes.results.back());
    if (traced_ms > 0) overhead.push_back(loop_ms(untraced.results.back()) / traced_ms);
    pair_s = SecondsSince(pair_start);
  } while (SecondsSince(pairs_start) + pair_s <= args.seconds * 0.7);
  ++passes.attempted;
  if (untraced.results.front().digest != passes.results.front().digest) {
    ++passes.failed;
    passes.errors.push_back("traced and untraced passes of the same seed differ in digest");
  }
  for (std::string& e : untraced.errors) passes.errors.push_back(std::move(e));
  passes.attempted += untraced.attempted;
  passes.failed += untraced.failed;

  const uint64_t replay_start = pb::NowNs();
  const double replay_budget = args.seconds * 0.3;
  std::vector<pb::ReplayResult> replays;
  double last_s = 0.0;
  do {
    const uint64_t start = pb::NowNs();
    replays.push_back(pb::RunReplay(w));
    last_s = SecondsSince(start);
  } while (SecondsSince(replay_start) + last_s <= replay_budget);

  // Replay faithfulness: same tree and the same simulated messages every
  // epoch as the serving path (the replay draws losses from the same seed).
  const pb::PassResult& session = passes.results.front();
  for (const pb::ReplayResult& rep : replays) {
    ++passes.attempted;
    if (!rep.tree_matches) {
      ++passes.failed;
      passes.errors.push_back("replay tree differs from the deployment's tree");
    }
    ++passes.attempted;
    if (rep.epoch_msgs != session.epoch_msgs) {
      ++passes.failed;
      size_t e = 0;
      while (e < rep.epoch_msgs.size() && e < session.epoch_msgs.size() &&
             rep.epoch_msgs[e] == session.epoch_msgs[e]) {
        ++e;
      }
      passes.errors.push_back("replay drifted from the session at epoch " + std::to_string(e));
    }
  }

  auto span_ms = [&](const char* name, double q) { return Quantile(tracer.DurationsMs(name), q); };
  auto per_call_us = [&](const char* name) {
    double ns = 0.0;
    uint64_t calls = 0;
    tracer.Totals(name, &ns, &calls);
    return calls == 0 ? 0.0 : ns / 1e3 / static_cast<double>(calls);
  };
  double publish_ns = 0.0;
  uint64_t publish_calls = 0;
  tracer.Totals("kspot.publish", &publish_ns, &publish_calls);
  double epochs = 0.0, deliveries = 0.0, operators = 0.0, share = 0.0, oracle_ms = 0.0;
  for (const pb::PassResult& r : passes.results) {
    epochs += static_cast<double>(r.epoch_ms.size());
    deliveries += static_cast<double>(r.deliveries);
    operators += r.operators_sum;
    share += r.share_sum;
    oracle_ms += r.oracle_ms;
  }
  std::vector<double> admit_us = tracer.DurationsMs("kspot.admit");
  for (double& x : admit_us) x *= 1e3;

  // Replay figures: medians across replays of per-replay summaries.
  auto across = [&](auto fn) {
    std::vector<double> v;
    for (const pb::ReplayResult& rep : replays) v.push_back(fn(rep));
    return Median(v);
  };
  const pb::ReplayResult& rep0 = replays.front();
  const double rep_epochs = static_cast<double>(std::max<size_t>(rep0.epochs, 1));
  *m = {
      {"sim.topology_ms", {across([](const auto& r) { return r.topology_ms; }), "ms"}},
      {"sim.tree_ms", {across([](const auto& r) { return r.tree_ms; }), "ms"}},
      {"kspot.deployment_ms", {span_ms("kspot.deployment", 0.5), "ms"}},
      {"kspot.open_ms", {span_ms("kspot.open", 0.5), "ms"}},
      {"query.parse_us", {across([](const auto& r) { return Median(r.parse_us); }), "us"}},
      {"kspot.admit_us", {Median(admit_us), "us"}},
      {"kspot.step_ms", {span_ms("kspot.step", 0.5), "ms"}},
      {"kspot.step_ms_p95", {span_ms("kspot.step", 0.95), "ms"}},
      {"kspot.publish_ms", {span_ms("kspot.publish", 0.5), "ms"}},
      {"kspot.deliveries", {epochs == 0 ? 0.0 : deliveries / epochs, "count"}},
      {"kspot.publish_ns_per_delivery",
       {deliveries == 0 ? 0.0 : publish_ns / deliveries, "ns"}},
      {"kspot.subscribe_us", {per_call_us("kspot.subscribe"), "us"}},
      {"kspot.close_ms", {span_ms("kspot.close", 0.5), "ms"}},
      {"kspot.operators", {epochs == 0 ? 0.0 : operators / epochs, "count"}},
      {"kspot.share_ratio", {epochs == 0 ? 0.0 : share / epochs, "ratio"}},
      {"fault.churn_ms", {across([](const auto& r) { return Mean(r.churn_ms); }), "ms"}},
      {"fault.repairs", {static_cast<double>(rep0.repair_events), "count"}},
      {"fault.repair_msgs", {static_cast<double>(rep0.repair_messages) / rep_epochs, "msgs"}},
      {"core.repair_ms", {across([](const auto& r) { return Mean(r.repair_ms); }), "ms"}},
  };
  static const char* const kBuckets[] = {"mint", "tag", "select", "historic"};
  for (int b = 0; b < static_cast<int>(pb::Bucket::kCount); ++b) {
    std::string base = std::string("core.") + kBuckets[b];
    m->push_back({base + "_ms_p50",
                  {across([b](const auto& r) { return Quantile(r.run_ms[b], 0.5); }), "ms"}});
    m->push_back({base + "_ms_p95",
                  {across([b](const auto& r) { return Quantile(r.run_ms[b], 0.95); }), "ms"}});
    m->push_back({base + "_msgs", {static_cast<double>(rep0.run_msgs[b]) / rep_epochs, "msgs"}});
  }
  m->push_back({"data.prepare_ms", {across([](const auto& r) { return Mean(r.prepare_ms); }), "ms"}});

  // Radio bill by phase from the replay's network, per epoch. `lost` is the
  // airtime of unicast attempts no receiver heard (tx airtime minus rx
  // airtime), expressed in transmissions of the phase's mean airtime. It is
  // estimated phase by phase, since a broadcast phase's rx airtime exceeds
  // its tx airtime and would cancel other phases' losses in a sum.
  auto lost_in = [&](const kspot::sim::TrafficCounters& c) {
    double tx_s = c.tx_energy_j / rep0.tx_j_per_s;
    double rx_s = c.rx_energy_j / rep0.rx_j_per_s;
    // Differences below 1e-9 of the total are summation rounding, not loss.
    double unheard_s = tx_s - rx_s > 1e-9 * tx_s ? tx_s - rx_s : 0.0;
    return c.messages == 0 ? 0.0 : unheard_s / (tx_s / static_cast<double>(c.messages));
  };
  auto add_phase = [&](const std::string& suffix, const kspot::sim::TrafficCounters& c,
                       double lost) {
    m->push_back({"sim.msgs" + suffix, {static_cast<double>(c.messages) / rep_epochs, "msgs"}});
    m->push_back({"sim.bytes" + suffix, {static_cast<double>(c.payload_bytes) / rep_epochs, "B"}});
    m->push_back({"sim.lost" + suffix, {lost / rep_epochs, "msgs"}});
  };
  kspot::sim::TrafficCounters total, other;
  double total_lost = 0.0, other_lost = 0.0;
  for (const auto& [phase, c] : rep0.by_phase) {
    total.Add(c);
    total_lost += lost_in(c);
    if (std::find(std::begin(kPhases), std::end(kPhases), phase) == std::end(kPhases)) {
      other.Add(c);
      other_lost += lost_in(c);
    }
  }
  add_phase("", total, total_lost);
  for (const char* phase : kPhases) {
    auto it = rep0.by_phase.find(phase);
    const kspot::sim::TrafficCounters c =
        it == rep0.by_phase.end() ? kspot::sim::TrafficCounters{} : it->second;
    add_phase(std::string(".") + phase, c, lost_in(c));
  }
  add_phase(".other", other, other_lost);
  m->push_back({"check.oracle_ms", {epochs == 0 ? 0.0 : oracle_ms / epochs, "ms"}});
  m->push_back({"trace.overhead", {Median(overhead), "ratio"}});
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kspot_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--tiny]\n");
    return 2;
  }
  pb::Workload workload;
  if (!pb::MakeWorkload(args.workload, args.seed, args.tiny, &workload)) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const std::string& n : pb::WorkloadNames()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  Passes passes;
  Metrics metrics;
  if (args.trace == 0) {
    EndToEnd(workload, args, passes, &metrics);
  } else {
    PerLayer(workload, args, passes, &metrics);
  }
  for (const std::string& e : passes.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  const bool correct = passes.failed == 0;
  std::fflush(stderr);
  PrintJson(correct, passes.attempted, passes.failed, metrics);
  return correct ? 0 : 1;
}
