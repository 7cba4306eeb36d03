#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/query_spec.hpp"
#include "core/tja.hpp"
#include "data/generators.hpp"
#include "fault/fault_plan.hpp"
#include "kspot/scenario_config.hpp"
#include "query/ast.hpp"
#include "sim/network.hpp"
#include "sim/routing_tree.hpp"
#include "sim/topology.hpp"
#include "storage/history_store.hpp"

namespace kspot::system {

/// The continuous-historic serving path. Everything here defaults off /
/// inert: with `continuous` false, vertical historic queries keep their
/// one-shot bind-time execution and none of the other knobs is consulted,
/// so default-configured runs stay byte-identical to a build without the
/// path (golden-pinned).
struct HistoricPathConfig {
  /// Serve vertical historic queries as continuous session citizens: the
  /// operator buffers each epoch's reading into per-node HistoryStores and
  /// StepEpoch advances the sink's window view every epoch like any
  /// snapshot operator (results fan out with completeness stamped).
  bool continuous = false;
  /// Maintain the sink's window view incrementally (O(delta) per epoch)
  /// instead of re-collecting whole windows (O(W*n)). Bit-identical answers
  /// either way; scratch exists as the measurable strawman.
  bool incremental = true;
  /// Archive readings evicted from the SRAM window to simulated flash.
  bool archive_to_flash = false;
  /// Charge flash I/O into the energy ledger and traffic counters.
  bool flash_accounting = false;
  /// Cluster-neighbor predictive suppression: a sensor stays silent when
  /// its reading is within `suppression_eps` of the last value it reported;
  /// the room head re-injects the predictor, bounding reconstruction error
  /// by `suppression_eps`.
  bool suppression = false;
  double suppression_eps = 0.5;
};

/// The deployment-wide execution knobs: QueryCoordinator::Options derives
/// from this, and TagShadow reads the same struct, so a System-Panel
/// baseline always runs under the session's radio, battery and churn knobs.
struct DeploymentConfig {
  /// Epochs to drive continuous queries for.
  size_t epochs = 30;
  /// RNG seed (tree growth, data, losses, fault plan).
  uint64_t seed = 1;
  /// Per-frame loss probability.
  double loss_prob = 0.0;
  /// Link-layer retries.
  int max_retries = 0;
  /// Per-node battery budget, joules; <= 0 means unlimited. Shared: every
  /// query's traffic drains the same meters.
  double battery_j = 0.0;
  /// Fault & churn injection over the routing tree: a FaultPlan drawn from
  /// `churn` and the run's seed, one repair per epoch, every operator
  /// notified. `churn.horizon` 0 = the whole run. (One-shot vertical
  /// historic queries run over already-buffered windows at Open and see no
  /// churn.)
  bool enable_churn = false;
  fault::FaultPlanOptions churn;
  /// Data generator factory; defaults to the deployment's room-correlated
  /// walk.
  std::function<std::unique_ptr<data::DataGenerator>(const Scenario&, uint64_t seed)>
      make_generator;
  /// Shard lanes for parallel epoch execution inside one deployment: the
  /// routing tree is cut at its cluster-head subtrees and lanes run
  /// concurrently, merged deterministically at each epoch boundary. Results
  /// are bit-identical to the serial path for any value; 1 (the default)
  /// keeps serial execution with no runtime attached.
  size_t shards = 1;
  /// Worker threads for sharded execution; 0 picks hardware concurrency.
  /// (Results do not depend on this — only wall-clock does.)
  size_t shard_threads = 0;
  /// Observability (src/obs): turn on the process-global metrics registry /
  /// span tracer when this session opens. One-way — opening a session never
  /// forces them off (the KSPOT_OBS env var or another session may hold them
  /// up). Off by default; enabling changes no result bit
  /// (golden_equivalence_test pins bit-identical runs with both fully on).
  bool enable_metrics = false;
  bool enable_tracing = false;
  /// Reliability & graceful-degradation layer (adaptive retry/backoff, epoch
  /// deadlines, completeness accounting). Off by default and then bit-inert:
  /// disabled runs are byte-identical to a build without the layer.
  sim::ReliabilityOptions reliability;
  /// Continuous-historic serving (incremental window maintenance, flash
  /// accounting, predictive suppression). Off by default and then bit-inert.
  HistoricPathConfig historic;
};

/// One deployed sensor network as the base station administers it: the
/// scenario, the simulator topology built from it, and the routing tree
/// grown over the deployment.
///
/// QueryCoordinator owns one and drives many concurrent queries over the
/// same tree, batteries and per-epoch data wave. The topology and tree here
/// stay pristine — sessions (and TagShadow) that mutate the tree under churn
/// repair their own copies, and the deployment remains the per-run starting
/// point.
struct Deployment {
  /// Default window of historic queries that name none.
  static constexpr size_t kDefaultWindow = 32;

  Scenario scenario;
  sim::Topology topology;
  sim::RoutingTree tree;

  /// Builds the deployment for `scenario`. The routing tree derives from
  /// `seed ^ 0xA5A5A5A5`: the Figure-1 scenario
  /// pins the paper's tree, every other scenario grows the cluster-aware
  /// first-heard-from tree (rooms form contiguous subtrees and close low —
  /// what MINT's view hierarchy exploits).
  Deployment(Scenario scenario, uint64_t seed);

  /// The default data source: a room-correlated walk matching the
  /// scenario's modality, fully derived from `seed` (the shared per-epoch
  /// data wave — every operator reading the same generator instance at the
  /// same epoch sees the identical readings, and re-deriving with the same
  /// seed replays the identical wave).
  std::unique_ptr<data::DataGenerator> DefaultGenerator(uint64_t seed) const;

  /// The run's data wave: `config.make_generator` when set, else
  /// DefaultGenerator, seeded with `config.seed`.
  std::unique_ptr<data::DataGenerator> Generator(const DeploymentConfig& config) const;

  /// The run's fault plan over this topology, drawn from `config.churn` with
  /// seed `config.seed ^ 0xFA11`; a zero (or too long) horizon covers the
  /// run's `config.epochs`.
  fault::FaultPlan ChurnPlan(const DeploymentConfig& config) const;

  /// The per-node history windows a vertical historic query reads: the
  /// first `window` epochs of `gen` buffered at every sensor (the sink
  /// samples nothing). Local buffering costs no radio traffic.
  std::vector<storage::HistoryStore> BufferWindows(data::DataGenerator& gen,
                                                   size_t window) const;
};

/// Salt of every serving network's RNG: a session and the TAG shadow beside
/// it both seed their Network with `seed ^ kNetworkSalt`, so they draw the
/// same loss sequence.
inline constexpr uint64_t kNetworkSalt = 0x77;

/// Maps a parsed snapshot/grouped query onto the algorithm-facing QuerySpec
/// under `scenario`'s modality. Basic GROUP-BY selects (no TOP clause)
/// report every group, modeled as K = all.
core::QuerySpec SpecFromQuery(const query::ParsedQuery& parsed, const Scenario& scenario);

/// The window a historic query reads: its WITH HISTORY depth, or
/// Deployment::kDefaultWindow when it names none.
size_t HistoryWindow(const query::ParsedQuery& parsed);

/// Maps a parsed vertical historic query onto the TJA / TAG-H options.
core::HistoricOptions HistoricFromQuery(const query::ParsedQuery& parsed);

/// Maps the shared DeploymentConfig radio knobs onto the simulator's
/// NetworkOptions — ONE mapping, so a knob added to the serving options
/// reaches the session's network and the TAG shadow's alike.
inline sim::NetworkOptions RadioOptionsFrom(const DeploymentConfig& options) {
  sim::NetworkOptions opts;
  opts.loss_prob = options.loss_prob;
  opts.max_retries = options.max_retries;
  opts.battery_j = options.battery_j;
  opts.reliability = options.reliability;
  return opts;
}

}  // namespace kspot::system
