// Long-mission chaos campaigns: one run, tens of millions of ticks,
// streamed through the bounded-memory monitor stack in checkpointed
// chunks.
//
// A mission is still just a RunSpec — same schedule format, same
// replayability — but executed with the infrastructure a 10^7-tick run
// needs and a short campaign doesn't: a multi-phase generated schedule
// (setup -> storm -> recovery cycles, chaos/campaign.hpp's
// ScheduleProfile), periodic checkpoint fingerprints over the cluster's
// full protocol state (the thread- and chunk-size-invariant determinism
// witness), a time-pruned IntegrityMonitor, and capped violation
// recording so an out-of-spec mission reports counts rather than an
// unbounded list.
#pragma once

#include <cstdint>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/runner.hpp"

namespace ahb::chaos {

struct MissionOptions {
  /// The run header. When `generate` is set, spec.schedule is replaced
  /// by generate_schedule(spec, profile) — the result lands in
  /// MissionResult::spec, so every mission stays spec-replayable.
  RunSpec spec;
  ScheduleProfile profile;
  bool generate = true;
  /// Checkpoint cadence. The fingerprint stream is invariant under the
  /// cadence a replay uses *between* matching instants, so two missions
  /// agree wherever their checkpoint instants coincide.
  Time checkpoint_interval = 1'000'000;
  /// Violations stored verbatim per monitor; the rest only count.
  std::size_t max_recorded_violations = 16;
  /// IntegrityMonitor prune window; 0 derives a safe default (8 tmax,
  /// far past any delivery or duplicate of a corrupted send).
  Time integrity_prune_window = 0;
  /// pLTL formulas attached next to the hand-written monitors. A
  /// formula monitor's memory is O(subformulas) regardless of horizon,
  /// so formulas are mission-safe; their verdicts land in
  /// MissionResult::formula_violations (recorded up to
  /// max_recorded_violations) and never affect the checkpoint
  /// fingerprints.
  std::vector<rv::pltl::FormulaSpec> formulas;
};

struct MissionCheckpoint {
  Time at = 0;
  /// FNV-1a over the cluster's protocol state and network counters.
  std::uint64_t state = 0;
};

struct MissionResult {
  /// The fully-resolved, serializable spec the mission executed.
  RunSpec spec;
  /// First max_recorded_violations violations, in detection order per
  /// monitor (R1–R3, then suspicion, then integrity).
  std::vector<rv::Violation> violations;
  std::uint64_t violations_total = 0;
  /// From MissionOptions::formulas, kept apart from the hand-written
  /// monitors' verdicts (capped like `violations`; the total counts).
  std::vector<rv::Violation> formula_violations;
  std::uint64_t formula_violations_total = 0;
  rv::AvailabilitySummary availability;
  rv::IntegritySummary integrity;
  sim::NetworkStats net_stats;
  bool out_of_spec = false;
  bool all_inactive = false;
  std::vector<MissionCheckpoint> checkpoints;
  /// FNV-1a fold of the checkpoint stream — the mission fingerprint.
  std::uint64_t fingerprint = 0;
  /// IntegrityMonitor's tracked-set high water (bounded-memory check).
  std::size_t integrity_high_water = 0;
  std::uint64_t events_seen = 0;
};

MissionResult run_mission(const MissionOptions& options);

}  // namespace ahb::chaos
