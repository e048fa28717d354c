// Declarative fault schedules: the single replayable description of a
// chaos run.
//
// A FaultSchedule is an ordered list of timed fault actions (network
// degradation, partitions, crashes, leaves, clock drift) applied to a
// cluster at absolute simulation times. Together with the RunSpec
// header (variant, timing, seed, horizon) it fully determines an
// execution: the engine, its transport and the schedule are all
// seeded, so replaying a serialized schedule reproduces the run — and
// any monitor violation — byte for byte. Serialization is JSON lines
// (one header line, one line per action) to keep shrunk counterexample
// artifacts diffable and greppable.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "hb/types.hpp"
#include "sim/link.hpp"

namespace ahb::chaos {

using Time = sim::Time;
using Variant = proto::Variant;

/// The fault taxonomy. Node/link operands: `a`/`b` are node ids (0 is
/// the coordinator); link actions affect the directed link a -> b.
enum class FaultKind {
  SetLoss,          ///< a->b: i.i.d. loss probability := p
  SetBurst,         ///< a->b: Gilbert–Elliott burst (p_enter=p, p_exit=q, loss=r)
  SetDelay,         ///< a->b: one-way delay range := [d1, d2]
  SetDuplication,   ///< a->b: duplication probability := p
  LinkDown,         ///< a->b: drop everything (silent link failure)
  LinkUp,           ///< a->b: undo LinkDown
  Partition,        ///< participants a..b cut off from the coordinator
  Heal,             ///< undo Partition of a..b
  CrashParticipant, ///< participant a crashes
  CrashCoordinator, ///< the coordinator crashes
  Leave,            ///< participant a leaves gracefully (dynamic variant)
  Rejoin,           ///< participant a re-enters the join phase
  SetDrift,         ///< node a's clock rate := d1/d2 local units per global
  CorruptPayload,   ///< a->b: in-flight bit-flip probability := p
  SetClockOffset,   ///< node a's hardware clock register jumps by d1 ticks
  WrapClock,        ///< node a's register repositioned d1 ticks before 2^64
  AsymmetricStorm,  ///< burst (p,q,r) on one direction only for members
                    ///< a..b — d2 = 0 uplinks, 1 downlinks — for d1 ticks
  ChurnStorm,       ///< members a..b leave in a wave staggered d1 apart,
                    ///< each rejoining d2 after its leave (d2 = 0: no rejoin)
};

const char* to_string(FaultKind kind);
std::optional<FaultKind> fault_kind_from_string(const std::string& name);

std::optional<Variant> variant_from_string(const std::string& name);

/// One timed fault action. Which operands are meaningful depends on
/// the kind (see FaultKind); unused operands stay zero so serialized
/// actions compare bytewise.
struct FaultAction {
  FaultKind kind{};
  Time at = 0;
  int a = 0;
  int b = 0;
  double p = 0.0;
  double q = 0.0;
  double r = 0.0;
  Time d1 = 0;
  Time d2 = 0;

  friend bool operator==(const FaultAction&, const FaultAction&) = default;

  /// True when this action steps outside the protocol's channel/clock
  /// assumptions at the given timing: a one-way delay bound above
  /// tmin/2 (breaking the round-trip <= tmin premise), a clock rate
  /// other than 1, or a clock-register jump. Everything else — loss,
  /// bursts, partitions, duplication, crashes, leaves, churn,
  /// asymmetric storms, payload corruption (the boundary validation
  /// turns it into message destruction) — is within spec, so any
  /// monitor violation under it is a genuine protocol bug. Some kinds
  /// are guard-dependent (a WrapClock is harmless only under the
  /// modular-clock guard): RunSpec::out_of_spec() accounts for the
  /// run's guard configuration, this per-action form assumes guards on.
  bool out_of_spec(const proto::Timing& timing) const;
};

struct FaultSchedule {
  std::vector<FaultAction> actions;

  bool out_of_spec(const proto::Timing& timing) const;

  friend bool operator==(const FaultSchedule&, const FaultSchedule&) = default;
};

/// Everything needed to reproduce one chaos run.
struct RunSpec {
  Variant variant = Variant::Binary;
  Time tmin = 1;
  Time tmax = 16;
  /// Corrected protocol (Section 6 fixes). The in-spec campaigns run
  /// with both fixes on, where R1–R3 hold at every valid timing.
  bool fixed_bounds = true;
  bool receive_priority = true;
  int participants = 1;
  std::uint64_t seed = 1;
  Time horizon = 1000;
  /// Receiver guards. Both default on (the fail-safe configuration);
  /// turning one off is itself an out-of-spec experiment — the mutation
  /// canaries that prove the monitors would catch a missing guard.
  bool wire_validation = true;
  bool clock_guard = true;
  FaultSchedule schedule;

  proto::Timing timing() const { return proto::Timing{tmin, tmax}; }

  /// Schedule out-of-spec accounting for *this run's* guard
  /// configuration: payload corruption is in spec only under wire
  /// validation, a clock wrap only under the modular-clock guard.
  bool out_of_spec() const;

  friend bool operator==(const RunSpec&, const RunSpec&) = default;
};

/// JSONL round-trip. The first line is the RunSpec header, each further
/// line one action; parse returns nullopt on any malformed line, and on
/// values a run cannot execute: a participant count outside [1, INT_MAX],
/// a non-positive horizon, an invalid timing, an action time before 0,
/// node operands an int cannot hold, or a set-drift rate whose terms
/// times the horizon overflow int64.
std::string serialize_run(const RunSpec& spec);
std::optional<RunSpec> parse_run(const std::string& text);

}  // namespace ahb::chaos
