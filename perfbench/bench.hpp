// Shared declarations of the session-path benchmark: workload definitions,
// the span recorder, and the result records of the serving-path passes and
// the layer replay.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kspot/coordinator.hpp"
#include "kspot/scenario_config.hpp"
#include "sim/shard_state.hpp"

namespace perfbench {

/// Deterministic input generator (splitmix64). The benchmark draws every
/// input from it rather than from the library's RNG, so the inputs stay the
/// same when the program under test changes.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// What kind of operator a generated query asks for; the answer checker and
/// the replay bucket layer time by it.
enum class QueryKind { kTopK, kGroupedSelect, kWhereSelect, kVertical, kHorizontal };

struct QueryText {
  std::string sql;
  QueryKind kind = QueryKind::kTopK;
};

/// One workload: the generated scenario, deployment knobs, SQL and the
/// control-plane schedule. Everything is a pure function of (name, seed).
struct Workload {
  std::string name;
  uint64_t seed = 0;
  kspot::system::Scenario scenario;
  kspot::system::QueryCoordinator::Options options;
  size_t epochs = 0;                   ///< Epochs per pass.
  std::vector<QueryText> initial;      ///< Admitted before Open.
  size_t subscribers = 0;              ///< Round-robin over the initial queries.
  double resubscribe_fraction = 0.0;   ///< Subscribers cycled every epoch.
  size_t replace_every = 0;            ///< Cancel oldest + admit fresh every N epochs.
  std::vector<QueryText> fresh;        ///< Admitted at the replacements, in order.
  std::vector<QueryText> probe;        ///< Live Admit+Cancel pairs after the last epoch.

  /// Without loss every subscriber is served the operator's own result.
  bool loss_free() const { return options.loss_prob == 0.0; }
};

/// Builds workload `name` from `seed`; `tiny` shrinks it for the smoke test.
/// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, bool tiny, Workload* out);
const std::vector<std::string>& WorkloadNames();

// ------------------------------------------------------------------ tracing

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

/// In-memory span recorder: the benchmark's own spans around calls into the
/// library's public functions, read back by name for the per-layer metrics.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t count = 1;  ///< Calls a batched span covers.
  };
  size_t Begin(const char* name, uint64_t count);
  void End(size_t span);
  /// Durations in ms of every span named `name`, one per span.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Summed duration (ns) and summed call count of spans named `name`.
  void Totals(const std::string& name, double* ns, uint64_t* calls) const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null tracer
/// records nothing, which is how the untraced run skips the bookkeeping.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t count = 1)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, count) : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t id_;
};

// ------------------------------------------------------- serving-path pass

/// One pass over the public serving path: build, admit, open, subscribe,
/// every epoch (control calls, StepEpoch, Publish), probe, Close.
struct PassResult {
  double setup_s = 0.0;
  std::vector<double> epoch_ms;
  std::vector<double> admit_ms;        ///< Live admits only.
  std::vector<uint64_t> epoch_msgs;    ///< EpochUpdate::epoch_cost.messages per epoch.
  kspot::sim::TrafficCounters cost;    ///< Summed epoch_cost.
  double recall_sum = 0.0;
  uint64_t recall_n = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;
  uint64_t deliveries = 0;
  double operators_sum = 0.0;          ///< Summed per-epoch active operators.
  double share_sum = 0.0;              ///< Summed per-epoch queries/operator.
  double oracle_ms = 0.0;              ///< Checker time, outside every timed region.
  std::vector<std::string> errors;     ///< First few failure descriptions.
};

PassResult RunSessionPass(const Workload& workload, Tracer* tracer);

// ------------------------------------------------------------- layer replay

/// Operator buckets of the per-layer core.* metrics.
enum class Bucket { kMint, kTag, kSelect, kHistoric, kCount };

/// The workload's per-epoch call sequence replayed straight against the
/// layers (no coordinator): churn engine, data generator and operators.
struct ReplayResult {
  double topology_ms = 0.0;
  double tree_ms = 0.0;
  bool tree_matches = false;           ///< Same parents as the deployment's tree.
  std::vector<double> parse_us;        ///< query::Parse + Validate per SQL string.
  std::vector<double> churn_ms;        ///< Per epoch.
  std::vector<double> prepare_ms;      ///< Per epoch.
  std::vector<double> repair_ms;       ///< Per epoch, all operators.
  std::vector<double> run_ms[static_cast<int>(Bucket::kCount)];  ///< Per epoch.
  uint64_t run_msgs[static_cast<int>(Bucket::kCount)] = {};
  std::map<std::string, kspot::sim::TrafficCounters> by_phase;
  std::vector<uint64_t> epoch_msgs;
  size_t epochs = 0;
  size_t repair_events = 0;
  uint64_t repair_messages = 0;
  double tx_j_per_s = 0.0;             ///< Radio power per airtime second (tx).
  double rx_j_per_s = 0.0;             ///< (rx)
};

ReplayResult RunReplay(const Workload& workload);

// ---------------------------------------------------------------- helpers

/// Digest mixing (FNV-1a over 64-bit words).
inline uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace perfbench
