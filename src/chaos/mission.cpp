#include "chaos/mission.hpp"

#include <algorithm>

#include "rv/monitor.hpp"
#include "rv/suspicion.hpp"
#include "util/contracts.hpp"

namespace ahb::chaos {

namespace {

void fnv_u64(std::uint64_t& hash, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xFF;
    hash *= 1099511628211ULL;
  }
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

/// The checkpoint digest: every protocol-visible piece of cluster state
/// plus the network counters. Two executions of the same spec agree on
/// this at every instant, whatever chunking drove them there.
std::uint64_t state_digest(const hb::ScaleCluster& cluster) {
  std::uint64_t hash = kFnvOffset;
  fnv_u64(hash, static_cast<std::uint64_t>(
                    static_cast<int>(cluster.coordinator_status())));
  fnv_u64(hash, static_cast<std::uint64_t>(cluster.coordinator_wait()));
  fnv_u64(hash,
          static_cast<std::uint64_t>(cluster.coordinator_inactivated_at()));
  for (int i = 1; i <= cluster.participant_count(); ++i) {
    fnv_u64(hash, static_cast<std::uint64_t>(
                      static_cast<int>(cluster.participant_status(i))));
    fnv_u64(hash, static_cast<std::uint64_t>(cluster.participant_joined(i)));
    fnv_u64(hash,
            static_cast<std::uint64_t>(cluster.participant_inactivated_at(i)));
  }
  const auto& net = cluster.network_stats();
  fnv_u64(hash, net.sent);
  fnv_u64(hash, net.delivered);
  fnv_u64(hash, net.lost);
  fnv_u64(hash, net.duplicated);
  fnv_u64(hash, net.corrupted);
  fnv_u64(hash, net.rejected);
  return hash;
}

/// Copies at most `room` violations and returns how many there were.
std::uint64_t take_capped(std::vector<rv::Violation>& out,
                          const std::vector<rv::Violation>& in,
                          std::size_t cap) {
  const std::size_t room = cap > out.size() ? cap - out.size() : 0;
  out.insert(out.end(), in.begin(),
             in.begin() + static_cast<std::ptrdiff_t>(
                              std::min(room, in.size())));
  return in.size();
}

}  // namespace

MissionResult run_mission(const MissionOptions& options) {
  MissionResult result;
  result.spec = options.spec;
  if (options.generate) {
    result.spec.schedule = generate_schedule(options.spec, options.profile);
  }
  const RunSpec& spec = result.spec;
  AHB_EXPECTS(spec.participants >= 1);
  AHB_EXPECTS(spec.timing().valid());
  AHB_EXPECTS(spec.horizon > 0);
  result.out_of_spec = spec.out_of_spec();

  hb::ScaleCluster cluster(cluster_config_for(spec));

  const rv::MonitorBounds bounds = rv::MonitorBounds::defaults(
      spec.timing(), spec.variant, spec.fixed_bounds);
  rv::RequirementMonitor::Config monitor_config{spec.variant, spec.timing(),
                                                spec.fixed_bounds,
                                                spec.participants};
  rv::RequirementMonitor monitor(monitor_config, bounds);
  rv::SuspicionMonitor::Config suspicion_config;
  suspicion_config.variant = spec.variant;
  suspicion_config.timing = spec.timing();
  suspicion_config.participants = spec.participants;
  rv::SuspicionMonitor suspicion(suspicion_config, bounds);
  rv::AvailabilityStats availability(spec.participants);
  rv::IntegrityMonitor::Config integrity_config;
  integrity_config.prune_window = options.integrity_prune_window > 0
                                      ? options.integrity_prune_window
                                      : 8 * spec.tmax;
  integrity_config.max_recorded = options.max_recorded_violations;
  rv::IntegrityMonitor integrity(integrity_config);

  monitor.attach(cluster);
  suspicion.attach(cluster);
  cluster.add_sink(&availability);
  integrity.attach(cluster);

  std::vector<std::unique_ptr<rv::pltl::FormulaMonitor>> formula_monitors;
  {
    rv::pltl::BindParams params{spec.variant, spec.timing(), spec.fixed_bounds,
                                spec.participants, 2};
    for (const auto& formula_spec : options.formulas) {
      auto made = rv::pltl::make_monitor(formula_spec, params);
      AHB_EXPECTS(made.ok());
      made.monitor->set_max_recorded(options.max_recorded_violations);
      cluster.add_sink(made.monitor.get());
      formula_monitors.push_back(std::move(made.monitor));
    }
  }

  schedule_actions(cluster, spec);
  cluster.start();

  // The chunked drive: run_until is re-entrant on the same cluster, so
  // the mission streams through in checkpoint_interval slices with
  // nothing buffered between them — memory stays flat at any horizon.
  const Time interval = std::max<Time>(options.checkpoint_interval, 1);
  std::uint64_t fingerprint = kFnvOffset;
  for (Time t = interval; ; t += interval) {
    const Time stop = std::min(t, spec.horizon);
    cluster.run_until(stop);
    MissionCheckpoint checkpoint;
    checkpoint.at = stop;
    checkpoint.state = state_digest(cluster);
    fnv_u64(fingerprint, static_cast<std::uint64_t>(checkpoint.at));
    fnv_u64(fingerprint, checkpoint.state);
    result.checkpoints.push_back(checkpoint);
    if (stop == spec.horizon) break;
  }
  cluster.sinks().finish(spec.horizon);
  result.fingerprint = fingerprint;

  const std::size_t cap = options.max_recorded_violations;
  result.violations_total +=
      take_capped(result.violations, monitor.violations(), cap);
  result.violations_total +=
      take_capped(result.violations, suspicion.violations(), cap);
  result.violations_total +=
      take_capped(result.violations, integrity.violations(), cap);
  result.violations_total +=
      integrity.summary().violations - integrity.violations().size();
  for (const auto& formula_monitor : formula_monitors) {
    take_capped(result.formula_violations, formula_monitor->violations(), cap);
    result.formula_violations_total += formula_monitor->violations_total();
  }
  result.availability = availability.summary();
  result.integrity = integrity.summary();
  result.net_stats = cluster.network_stats();
  result.all_inactive = cluster.all_inactive();
  result.integrity_high_water = integrity.max_tracked();
  result.events_seen = monitor.events_seen() + integrity.events_seen();
  return result;
}

}  // namespace ahb::chaos
