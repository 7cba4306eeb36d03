#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/topology.hpp"
#include "sim/types.hpp"

namespace kspot::fault {

/// One scheduled fault-process event. Plans are declarative: a plan is data,
/// generated once from a seed (or written by hand in tests), and executed by
/// the ChurnEngine — so the same churn hits every algorithm under comparison
/// identically, and a sweep is reproducible from its seed alone.
struct FaultEvent {
  enum class Kind : uint8_t {
    kCrash,         ///< Node goes administratively down (fail-stop).
    kRecover,       ///< A crashed node comes back (and must re-attach).
    kDegradeStart,  ///< Links touching the node start losing extra frames.
    kDegradeEnd,    ///< The degradation episode ends.
    kBlackoutStart, ///< Links touching the node lose everything (loss 1.0).
    kBlackoutEnd,   ///< The blackout lifts.
    kBurstStart,    ///< A correlated burst-loss episode starts on the node's links.
    kBurstEnd,      ///< The burst-loss episode ends.
  };
  sim::Epoch at = 0;
  Kind kind = Kind::kCrash;
  sim::NodeId node = 0;
  double extra_loss = 0.0;  ///< Episode loss; meaningful for kDegradeStart.
};

/// Human-readable kind name ("crash", ...).
const char* FaultEventKindName(FaultEvent::Kind kind);

/// Knobs of the generated fault process. All probabilities are per sensing
/// node per epoch; the sink never fails (it is the mains-powered base
/// station).
struct FaultPlanOptions {
  /// Epochs the plan covers; no event is scheduled at or past the horizon.
  /// 0 = unset: drivers resolve it to their run length
  /// (Deployment::ChurnPlan snaps it to `epochs`); FaultPlan::Generate with a
  /// zero horizon yields an empty plan.
  sim::Epoch horizon = 0;
  /// Probability an up node crashes in an epoch.
  double crash_prob = 0.0;
  /// Mean epochs a crashed node stays down; 0 makes crashes permanent.
  sim::Epoch mean_downtime = 0;
  /// Probability a clean node starts a link-degradation episode in an epoch.
  double degrade_prob = 0.0;
  /// Extra per-frame loss on the degraded node's links during an episode.
  double degrade_extra_loss = 0.3;
  /// Episode length in epochs.
  sim::Epoch degrade_duration = 10;
  /// Crash draws stop while this fraction of sensors is already down, so a
  /// hot plan cannot depopulate the network outright.
  double max_down_fraction = 0.5;
  /// Probability a clean node's links black out entirely in an epoch (every
  /// frame lost until the episode ends) — the correlated-loss stressor the
  /// reliability layer's deadline/budget path is tested against.
  double blackout_prob = 0.0;
  /// Blackout length in epochs.
  sim::Epoch blackout_duration = 3;
  /// Probability a clean node starts a burst-loss episode in an epoch:
  /// heavier than a degradation, lighter than a blackout.
  double burst_prob = 0.0;
  /// Extra per-frame loss during a burst episode.
  double burst_extra_loss = 0.6;
  /// Burst episode length in epochs.
  sim::Epoch burst_duration = 5;
};

/// A reproducible schedule of node churn and link dynamics.
struct FaultPlan {
  /// Events sorted by epoch. Within an epoch the order is canonical:
  /// scheduled returns first (recoveries, episode ends), then the epoch's
  /// fresh events, each sub-ordered by node id — so a node that recovers and
  /// re-crashes in the same epoch sees the recovery applied first.
  std::vector<FaultEvent> events;
  /// The seed everything above derives from.
  uint64_t seed = 0;

  /// Draws a plan for `topology` from `seed`. Deterministic: equal inputs
  /// produce equal plans. Epoch 0 is always clean so creation phases run on
  /// the full population, no event lands at or past the horizon (an event at
  /// exactly horizon-1 is the last possible; a recovery that would land past
  /// the horizon never happens and the node stays down), and crash draws
  /// stop while max_down_fraction of the sensors is already down.
  ///
  /// Sampling is event-driven: each node owns an independent RNG substream
  /// and draws geometric inter-event gaps over its eligible epochs (one
  /// uniform per event) instead of one Bernoulli trial per node per epoch;
  /// a chronological sweep merges the per-node processes and enforces the
  /// max-down cap. Cost scales with the number of events, not with
  /// horizon x nodes. The realized process is the same fault process the
  /// per-epoch sampler drew (geometric inter-arrivals over eligible epochs,
  /// crash-before-degrade tie order, identical boundary handling); the
  /// concrete realization for a given seed is pinned by golden tests.
  static FaultPlan Generate(const sim::Topology& topology, const FaultPlanOptions& options,
                            uint64_t seed);

  /// Number of events of `kind`.
  size_t CountKind(FaultEvent::Kind kind) const;

  /// One-line summary ("17 crashes, 12 recoveries, ..." ) for logs.
  std::string Summary() const;
};

}  // namespace kspot::fault
