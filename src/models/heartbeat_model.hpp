// Timed-automata models of the accelerated heartbeat protocols,
// mirroring the UPPAAL models of the source analysis (Figures 3-9):
// p[0], the participants p[i], the lossy bounded-delay channel automata,
// and the R1 watchdog monitors. The class also constructs the state
// predicates used to check requirements R1-R3 as reachability of latched
// violations.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "mc/explorer.hpp"
#include "models/options.hpp"
#include "ta/network.hpp"

namespace ahb::models {

class HeartbeatModel {
 public:
  /// Per-participant handles into the network. For the binary flavors
  /// there is exactly one participant (p[1]).
  struct Participant {
    // process p[i]
    ta::AutomatonId proc;
    int l_joining = -1;  ///< expanding/dynamic only
    int l_alive = -1;
    int l_rcvd = -1;
    int l_v = -1;
    int l_nv = -1;
    int l_left = -1;  ///< dynamic only
    ta::VarId active;
    ta::ClockId wfb;     ///< waiting-for-beat clock
    ta::ClockId wtj{};   ///< waiting-to-join clock (expanding/dynamic)
    ta::VarId left{};    ///< dynamic: set when the leave beat is sent

    // round-trip channel p[0] -> p[i] -> p[0]
    ta::AutomatonId ch;
    int ch_idle = -1;
    int ch_t0 = -1;   ///< beat in flight towards p[i]
    int ch_w1 = -1;   ///< waiting for p[i]'s reply
    int ch_t1 = -1;   ///< reply in flight towards p[0]
    int ch_t1f = -1;  ///< leave beat in flight towards p[0] (dynamic)
    ta::ClockId delay;

    // join channel p[i] -> p[0] (expanding/dynamic)
    ta::AutomatonId jch;
    int jch_idle = -1;
    int jch_t = -1;
    ta::ClockId jdelay{};

    // p[0]-side per-participant bookkeeping
    ta::VarId rcvd0;  ///< rcvd[i]: beat received this round
    ta::VarId tm{};   ///< tm[i]: per-participant waiting time (multi)
    ta::VarId jnd{};  ///< jnd[i]: registered as joined (expanding/dynamic)

    // R1 watchdog monitor (only when BuildOptions::r1_monitor)
    ta::AutomatonId mon;
    int mon_wait = -1;   ///< disarmed (expanding/dynamic start here)
    int mon_armed = -1;
    int mon_error = -1;
    ta::ClockId mdelay{};

    // Delivery channels towards p[0], exposed so instrument hooks
    // (models/formula_check.hpp) can attach observer automata to the
    // events the runtime layer reports as CoordinatorReceivedBeat /
    // CoordinatorReceivedLeave. Invalid (-1) where the flavor has no
    // such channel.
    ta::ChanId ch_deliver_beat{};   ///< reply-beat deliveries to p[0]
    ta::ChanId ch_deliver_join{};   ///< join-beat deliveries (expanding/dynamic)
    ta::ChanId ch_deliver_leave{};  ///< leave-beat deliveries (dynamic)
  };

  struct Handles {
    ta::AutomatonId p0;
    int l_init = -1;  ///< revised binary / initial send location
    int l_alive = -1;
    int l_timeout = -1;
    int l_v = -1;
    int l_nv = -1;
    ta::VarId active0;
    ta::VarId t;  ///< current waiting time of p[0]
    ta::ClockId waiting;
    ta::VarId lost;  ///< latched: some message was lost
    /// Latched: a join beat was delivered after its sender had already
    /// left the join phase (expanding/dynamic only, else -1). The
    /// engine's coordinator registers any flag message, so the model
    /// delivers stale joins too; the paper's R3 analysis assumes the
    /// join channel is quiet after joining, so `r3_violation` only
    /// counts runs where this stayed 0 (the same role `lost` plays for
    /// the channel-loss assumption).
    ta::VarId stale_join{};
    /// Upper bound of the join channels' delay clocks (expanding/
    /// dynamic only, else -1). The receive-priority timeout guard needs
    /// it: a pending join whose clock has hit the bound must resolve at
    /// this instant, so its delivery precedes a same-instant timeout.
    int jch_bound = -1;
    std::vector<Participant> parts;
  };

  /// Instrument hook: runs after the protocol (and, when enabled, the
  /// R1 watchdogs) is fully built but before reduction declarations and
  /// freeze, so it may add observer automata that synchronise on the
  /// broadcast delivery channels. Observers added here are NOT part of
  /// the symmetry blocks — an instrumented model must be explored with
  /// reductions off (default SearchLimits).
  using Instrument = std::function<void(ta::Network&, Handles&)>;

  static HeartbeatModel build(Flavor flavor, const BuildOptions& options);
  static HeartbeatModel build(Flavor flavor, const BuildOptions& options,
                              const Instrument& instrument);

  const ta::Network& net() const { return net_; }
  const Handles& handles() const { return *handles_; }
  Flavor flavor() const { return flavor_; }
  const BuildOptions& options() const { return options_; }

  // ---- requirement predicates (violation = reachable state) ----

  /// R1 violated: some watchdog monitor reached its Error location.
  /// Requires the model to have been built with r1_monitor.
  mc::Pred r1_violation() const;

  /// R2 violated for participant `i`: p[i] non-voluntarily inactivated
  /// although no message was lost, p[0] is still active, and every other
  /// participant is either alive or was never registered as joined.
  mc::Pred r2_violation(int i) const;

  /// R2 violated for any participant.
  mc::Pred r2_violation_any() const;

  /// R3 violated: p[0] non-voluntarily inactivated although no message
  /// was lost, no stale join beat was delivered, and every participant
  /// is alive or never joined.
  mc::Pred r3_violation() const;

 private:
  HeartbeatModel() = default;

  // Handles live on the heap: guards inside the network capture a
  // pointer to them, and the heap allocation keeps that pointer stable
  // when the model is moved. Predicates returned by the r*_violation
  // methods must not outlive the model.
  ta::Network net_;
  std::unique_ptr<Handles> handles_;
  Flavor flavor_ = Flavor::Binary;
  BuildOptions options_;
};

/// Verdicts for one protocol/parameter combination, as reported in
/// Tables 1 and 2 of the source analysis: true means the requirement
/// holds (T), false that a counterexample exists (F).
struct Verdicts {
  bool r1 = false;
  bool r2 = false;
  bool r3 = false;
  mc::SearchStats r1_stats;
  mc::SearchStats r2_stats;
  mc::SearchStats r3_stats;
};

/// Model-checks R1, R2 and R3 for the given protocol and options.
/// Builds the model twice and runs two searches: R1 on the model with
/// watchdog monitors, and R2 and R3 together in one multi-target search
/// of the model without them (the monitors would only enlarge its state
/// space). Each r*_stats is what a search for that requirement alone
/// reports, except `elapsed`: the R2 and R3 times overlap, each running
/// from the start of the shared search until its verdict settled.
Verdicts verify_requirements(Flavor flavor, BuildOptions options,
                             const mc::SearchLimits& limits = {});

}  // namespace ahb::models
