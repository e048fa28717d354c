// Chaos campaigns: seeded sweeps of fault schedules across variants ×
// timings × seeds, with delta-debugging of any violating schedule down
// to a minimal replayable artifact.
//
// A campaign is deterministic end to end: schedules are generated from
// the run seed alone, runs are executed from their RunSpec alone, and
// the per-run results land in preallocated slots — so the aggregate
// result (including the execution fingerprint) is identical for any
// worker-thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "chaos/runner.hpp"

namespace ahb::chaos {

struct CampaignOptions {
  /// Variants to sweep; empty = all six.
  std::vector<Variant> variants;
  /// Timings to sweep; empty = a default mix of tmin/tmax shapes.
  std::vector<proto::Timing> timings;
  /// Participants for the multi variants (binary flavors always run 1).
  int participants = 2;
  /// Seeded runs per (variant, timing) cell.
  int runs_per_config = 30;
  std::uint64_t base_seed = 1;
  /// In-spec profile: loss/bursts/partitions/duplication/crashes/leaves
  /// only. Out-of-spec adds delay injection beyond tmin/2 and clock
  /// drift, and guarantees at least one such action per schedule (the
  /// negative control).
  bool out_of_spec = false;
  bool fixed_bounds = true;
  bool receive_priority = true;
  unsigned threads = 1;
  /// Delta-debug every violating schedule to a 1-minimal one.
  bool shrink = true;
  /// Record per-run traces and fold them into `fingerprint`.
  bool fingerprint = true;
  /// Mutation-canary knobs: added on top of the proto/timing.hpp
  /// defaults. Loosening a bound must silence the negative control —
  /// the test that proves the monitor bites.
  Time extra_r1_slack = 0;
  Time extra_r2_window = 0;
  Time extra_r3_slack = 0;
  /// pLTL formulas compiled once per (variant, timing) cell and attached
  /// to each of its runs next to the hand-written monitors. Their
  /// verdicts are aggregated separately (formula_violations below), so
  /// attaching formulas never changes violating-run counts, shrinking,
  /// or the campaign fingerprint.
  std::vector<rv::pltl::FormulaSpec> formulas;
};

struct ViolatingRun {
  RunSpec spec;                       ///< the full generated run
  std::vector<rv::Violation> violations;  ///< as reported on the full run
  RunSpec shrunk;                     ///< 1-minimal reproducer (== spec if
                                      ///< shrinking was disabled)
  std::string artifact;               ///< serialize_run(shrunk)
};

struct CampaignResult {
  std::uint64_t runs = 0;
  std::uint64_t violating_runs = 0;
  /// Summed horizons of every run — the campaign's simulated ticks
  /// (the denominator of wall-time-per-simulated-hour reporting).
  std::uint64_t sim_ticks = 0;
  sim::NetworkStats totals;  ///< summed over every run
  /// Availability score summed over every run (rv::AvailabilityStats):
  /// node up/down time, recoveries, detection-latency histogram.
  rv::AvailabilitySummary availability;
  /// Payload-integrity counters summed over every run.
  rv::IntegritySummary integrity;
  std::vector<ViolatingRun> violating;
  /// Totals over the attached pLTL formula monitors (0 when
  /// CampaignOptions::formulas is empty).
  std::uint64_t formula_violations = 0;
  std::uint64_t formula_violating_runs = 0;
  /// FNV-1a over every run's serialized spec + protocol trace, folded
  /// in run order; byte-equal across repeats and thread counts.
  std::uint64_t fingerprint = 0;
};

/// Deterministic schedule generation for `spec` (whose seed, variant,
/// timing and horizon select the faults). Exposed for tests.
FaultSchedule generate_schedule(const RunSpec& spec, bool out_of_spec_profile);

/// Multi-phase generation profile: the active window splits into
/// `cycles` equal cycles, each a setup (first quarter) -> storm (middle
/// half) -> recovery (last quarter) sequence with its own action
/// budget. Storms draw from the heavy mix (asymmetric burst storms,
/// churn waves, partitions, loss spikes, payload corruption when
/// armed); every recovery opens with a deterministic cleanup (heal +
/// loss/burst/corruption reset on every star link) so an in-spec
/// mission returns to a quiet channel before the next cycle. This
/// lifts the legacy generator's 4-action cap: the bool-profile
/// overload above keeps its original stream byte for byte, missions
/// use this one.
struct ScheduleProfile {
  int cycles = 1;
  int setup_budget = 2;     ///< max actions per setup phase (min 1)
  int storm_budget = 4;     ///< max actions per storm phase (min 1)
  int recovery_budget = 2;  ///< max actions per recovery phase (min 0)
  /// > 0 arms CorruptPayload storms with this per-message probability.
  double corrupt = 0.0;
  /// Storms may inject clock faults (SetClockOffset is out of spec;
  /// WrapClock is in spec only under the modular-clock guard).
  bool clock_faults = false;
  /// Also guarantee one legacy out-of-spec action (delay/drift).
  bool out_of_spec = false;
};

FaultSchedule generate_schedule(const RunSpec& spec,
                                const ScheduleProfile& profile);

/// The horizon a generated run needs: an active fault window followed
/// by a settle margin long enough that every monitor deadline armed in
/// the window lies before the horizon (no undetermined obligations).
Time campaign_horizon(const proto::Timing& timing, Variant variant,
                      bool fixed_bounds);

/// Delta-debugs `spec`'s schedule to a 1-minimal action list that still
/// reproduces a violation with the same requirement and node as the
/// first violation of the full run. `bounds` must match the bounds the
/// violation was found under.
RunSpec shrink_run(const RunSpec& spec,
                   const rv::MonitorBounds* bounds = nullptr);

CampaignResult run_campaign(const CampaignOptions& options);

}  // namespace ahb::chaos
