#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "core/select.hpp"
#include "core/tja.hpp"
#include "data/generators.hpp"
#include "fault/fault_plan.hpp"
#include "kspot/deployment.hpp"
#include "kspot/scenario_config.hpp"
#include "query/parser.hpp"
#include "sim/network.hpp"
#include "util/status.hpp"

namespace kspot::system {

/// Handle of an admitted query.
using QueryId = uint32_t;

/// Per-query admission controls for session mode.
struct AdmitOptions {
  /// Rate limit: the query asks to run every `period`-th epoch, counted from
  /// its join epoch. A share group steps in an epoch when ANY member is
  /// eligible, so a period only throttles the group once every member's
  /// period skips the epoch. 1 (the default) = every epoch.
  int period = 1;
  /// Execution priority: within an epoch, groups step in descending
  /// max-member-priority order (ties keep operator creation order, which is
  /// admission order). Under loss the shared per-node RNG substreams are
  /// consumed in execution order, so changing priorities may change realized
  /// losses; the all-default ordering is the batch Run() ordering.
  int priority = 0;
};

/// What one admitted query produced after a coordinator run.
struct QueryOutcome {
  QueryId id = 0;
  std::string sql;                            ///< As admitted.
  query::QueryClass query_class = query::QueryClass::kBasicSelect;
  std::string algorithm;                      ///< "MINT", "TAG", "TJA", ...
  std::vector<core::TopKResult> per_epoch;    ///< Snapshot answers per epoch.
  std::vector<std::vector<core::SelectTuple>> rows_per_epoch;  ///< Ungrouped selects.
  core::HistoricResult historic;              ///< Historic one-shot answer.
  /// Radio traffic of the operator this query rode. Compatible queries share
  /// one operator (and therefore one converge-cast per epoch); the shared
  /// bill is reported once here with the number of queries that split it, so
  /// a per-query figure is shared_cost / share_group_size.
  sim::TrafficCounters shared_cost;
  size_t share_group_size = 1;
  /// Session lifecycle: the epoch window this query was live for. Batch
  /// queries span the whole run; mid-session admits start later, mid-session
  /// cancels end early (their per_epoch/rows hold only the observed slice).
  sim::Epoch joined_epoch = 0;
  bool cancelled_mid_session = false;
};

/// The outcome of driving every admitted query over one run.
struct CoordinatorReport {
  size_t epochs = 0;
  size_t queries = 0;
  /// Distinct operator instances the shared data plane drove (snapshot
  /// piggybacking makes this <= queries). Counts every operator the session
  /// ever created, including ones released by mid-session cancels.
  size_t operators = 0;
  /// The deployment's whole radio bill for the run — one network, one
  /// battery ledger, everything included (tree-repair control traffic too).
  sim::TrafficCounters total;
  /// Tree-repair bookkeeping when churn is enabled.
  size_t repair_events = 0;
  uint64_t repair_messages = 0;
  size_t detached_nodes = 0;   ///< Up-but-unroutable after the last repair.
  std::vector<QueryOutcome> outcomes;  ///< One per served query, admission order.
};

/// One epoch's worth of results for every operator group, as StepEpoch
/// hands them out: the unit a fan-out layer (kspot/fanout.hpp) materializes
/// and broadcasts to subscribers. Results are shared pointers — one
/// materialization per group per epoch no matter how many consumers read it.
struct GroupUpdate {
  /// Stable operator-group id for the session (creation order).
  size_t group_id = 0;
  std::string algorithm;
  /// Queries riding this operator right now, admission order.
  std::vector<QueryId> members;
  /// False when the group was rate-limited out of this epoch (no member
  /// eligible) — consumers keep serving the previous materialized result.
  bool ran = false;
  /// Ranked answer of epoch-driven operators (MINT/TAG); null for selects
  /// and skipped epochs.
  std::shared_ptr<const core::TopKResult> result;
  /// Tuple rows of ungrouped selects; null otherwise.
  std::shared_ptr<const std::vector<core::SelectTuple>> rows;
};

struct EpochUpdate {
  sim::Epoch epoch = 0;
  /// The shared plane's radio bill for exactly this epoch (operator traffic
  /// plus tree-repair handshakes).
  sim::TrafficCounters epoch_cost;
  /// Node status after this epoch's churn pass (zeros when churn is off).
  size_t alive = 0;
  size_t detached = 0;
  size_t repair_events = 0;      ///< Cumulative over the session.
  uint64_t repair_messages = 0;  ///< Cumulative over the session.
  /// True when a reliability-layer epoch deadline truncated a wave this
  /// epoch: some group's answer is structurally partial (its TopKResult
  /// carries the per-result completeness). Always false with the layer off.
  bool degraded = false;
  /// One entry per live operator group, in this epoch's execution order
  /// (priority-desc, then creation order).
  std::vector<GroupUpdate> groups;
};

/// The multi-query KSpot server core (PAPER.md §II scaled out): admits N
/// declarative queries against ONE long-lived deployment and drives their
/// operators in lockstep over a single shared data plane — one Topology, one
/// RoutingTree (repaired in place under churn), one Network whose batteries
/// every query drains, and one per-epoch data wave that every operator reads
/// (each node samples once per epoch no matter how many queries are live).
///
/// Compatible snapshot queries piggyback: queries that reduce to the same
/// operator configuration (same algorithm, K, aggregate, grouping — or the
/// same WHERE predicate, or the same historic window) share one operator
/// instance and therefore one converge-cast per epoch, instead of each
/// paying full collection traffic. That sharing is where the multi-tenant
/// energy story comes from; E17 (`server_throughput`) measures it.
///
/// Two driving modes:
///
/// - **Batch**: Admit queries, call Run(). A run is a pure function of the
///   admitted set and Options::seed: Run() may be called repeatedly and
///   always reproduces the same report. The shared plane's seeds are fixed
///   derivations of Options::seed (network `seed ^ kNetworkSalt`, fault plan
///   `seed ^ 0xFA11`), so a single admitted snapshot query equals MINT driven
///   directly on such a network (pinned by coordinator_test). Run() is a
///   thin loop over the session surface below.
///
/// - **Session**: Open() builds the shared data plane once, StepEpoch()
///   advances it one epoch at a time, Close() tears it down and returns the
///   report. Between steps the admitted set is LIVE: Admit() joins new
///   queries to existing share groups (or spins up their operator
///   mid-deployment, without perturbing anyone else's results), Cancel()
///   withdraws a member and releases the operator when its share group
///   empties. Per-query AdmitOptions add rate limits (run every k-th epoch)
///   and priorities. Each StepEpoch returns the per-group materialized
///   results for fan-out (kspot/fanout.hpp).
class QueryCoordinator {
 public:
  struct Options : DeploymentConfig {
    /// Allow compatible queries to share one operator. Off = every query
    /// drives its own operator on the shared network (for measuring what the
    /// piggybacking saves).
    bool share_operators = true;
  };

  /// Builds the long-lived deployment for `scenario`.
  QueryCoordinator(Scenario scenario, Options options);
  ~QueryCoordinator();
  QueryCoordinator(QueryCoordinator&&) noexcept;
  QueryCoordinator& operator=(QueryCoordinator&&) noexcept;

  /// Parses, validates and admits one query. Expected failures (syntax or
  /// semantic errors) come back as Status; the query set is unchanged.
  /// While a session is open, the query joins the running deployment at the
  /// next epoch: it piggybacks on an existing compatible group's operator
  /// (observing results from its join epoch on) or gets a fresh operator;
  /// vertical historic queries run their one-shot TJA immediately.
  util::StatusOr<QueryId> Admit(const std::string& sql);
  util::StatusOr<QueryId> Admit(const std::string& sql, const AdmitOptions& admit);

  /// Withdraws an admitted query. Outside a session: before the next Run().
  /// While a session is open: effective at the next epoch; when the last
  /// member of a share group cancels, the group's operator is destroyed and
  /// stops costing the network, and the query's outcome keeps the slice of
  /// results it observed. Unknown or already-cancelled ids are clean errors.
  util::Status Cancel(QueryId id);

  /// Number of currently admitted queries.
  size_t active_queries() const;
  /// True if `id` is admitted and not cancelled (what fan-out subscription
  /// validates against).
  bool query_active(QueryId id) const;

  /// Drives all admitted queries for Options::epochs epochs over the shared
  /// data plane and returns every query's outcome plus the shared bill.
  /// Equivalent to Open() + epochs x StepEpoch() + Close(), bit-exactly.
  util::StatusOr<CoordinatorReport> Run();

  // ------------------------------------------------------------- session API

  /// Opens a session: builds the shared data plane (tree copy, network,
  /// generator, churn engine), binds every admitted query to its operator
  /// group and runs one-shot historic (TJA) queries. Error if already open.
  util::Status Open();
  /// True between Open() and Close().
  bool session_open() const;
  /// The next epoch StepEpoch() will execute (0 right after Open()).
  sim::Epoch session_epoch() const;
  /// Operator instances currently live (released groups excluded).
  size_t active_operators() const;

  /// Advances the shared data plane one epoch: churn/repair once for
  /// everyone, then every eligible operator group in priority order.
  /// Returns the per-group materialized results for fan-out.
  util::StatusOr<EpochUpdate> StepEpoch();

  /// Closes the session and returns the report over everything it served —
  /// including queries cancelled mid-session (their observed slice) and
  /// queries admitted mid-session (from their join epoch). The admitted set
  /// survives for the next Run()/Open(); mid-session cancels stay withdrawn.
  util::StatusOr<CoordinatorReport> Close();

  /// The deployment this coordinator administers (pristine; runs repair
  /// their own tree copies).
  const Deployment& deployment() const { return *deployment_; }
  const Options& options() const { return options_; }

 private:
  struct Admitted {
    QueryId id = 0;
    std::string sql;
    query::ParsedQuery parsed;
    query::QueryClass query_class = query::QueryClass::kBasicSelect;
    AdmitOptions admit;
    bool active = true;
  };
  struct Session;

  Options options_;
  /// Heap-held so an open session's network keeps pointing at the same
  /// topology when the coordinator is moved.
  std::unique_ptr<const Deployment> deployment_;
  std::vector<Admitted> admitted_;
  QueryId next_id_ = 1;
  std::unique_ptr<Session> session_;

  util::Status BindToSession(size_t admitted_index);
};

}  // namespace kspot::system
