#include "models/heartbeat_model.hpp"

#include <algorithm>
#include <array>

#include "util/contracts.hpp"
#include "util/strings.hpp"

namespace ahb::models {

using ta::ChanId;
using ta::ChanKind;
using ta::ClockId;
using ta::Edge;
using ta::LocKind;
using ta::StateMut;
using ta::StateView;
using ta::SyncDir;
using ta::VarId;

namespace {

using Handles = HeartbeatModel::Handles;

/// New waiting time for one participant after a round. Delegates to the
/// shared acceleration law in proto/timing.hpp (reset to tmax on a
/// received beat, accelerate on a miss; the two-phase miss at tmin
/// yields proto::kInactivateWait, which forces the inactivation branch).
int next_waiting_time(bool received, int current, const Timing& timing,
                      Flavor flavor) {
  return static_cast<int>(
      proto::next_wait(received, current, timing.to_proto(), flavor));
}

/// Fixed-variant receive priority (Section 6.1): "before processing
/// timeouts, it has to be checked whether the communication channels
/// offer messages that have to be delivered". True iff any channel holds
/// an undelivered round-trip message — a beat towards some p[i], or a
/// reply or leave towards p[0]. Join beats deliberately don't count
/// here: in-spec round-trip traffic can never span a deadline
/// (round-trip delay <= tmin <= the waiting time), so gating on "in
/// flight" is exact for these channels — but a join beat is
/// unsynchronised with p[0]'s round and may legitimately still be in
/// flight when the timer fires, exactly as the engine's timer fires
/// regardless of in-flight messages. Joins gate p[0]'s timeout only in
/// the forced case below.
bool any_delivery_pending(const StateView& v, const Handles* h) {
  for (const auto& p : h->parts) {
    const auto loc = v.loc(p.ch);
    if (loc == p.ch_t0 || loc == p.ch_t1) return true;
    if (p.ch_t1f >= 0 && loc == p.ch_t1f) return true;
  }
  return false;
}

/// A pending join beat whose delay clock has hit the channel bound must
/// resolve at this very instant (the transit invariant forbids waiting
/// longer), so under receive priority its delivery precedes a
/// same-instant timeout of p[0] — the engine processes a message
/// arriving at time T before p[0]'s timer callback at T. A join that
/// may still arrive later does not gate the timeout: ordering the close
/// before such a delivery corresponds to an engine run where the join
/// simply arrives after the close.
bool forced_join_pending(const StateView& v, const Handles* h) {
  if (h->jch_bound < 0) return false;
  for (const auto& p : h->parts) {
    if (p.jch.value < 0) continue;
    if (v.loc(p.jch) == p.jch_t && v.clk(p.jdelay) == h->jch_bound) {
      return true;
    }
  }
  return false;
}

/// Builder for all protocol flavors. Channels are modelled per Figure 5:
/// one round-trip automaton per participant enforcing the tmin bound on
/// the total round-trip delay, with nondeterministic loss that latches
/// the global `lost` flag. Deliveries are broadcast channels so that the
/// watchdog monitors can observe them without perturbing the protocol.
///
/// The builder fills a caller-owned Network and Handles; guards capture
/// a pointer to those Handles (heap-allocated by HeartbeatModel::build,
/// so the pointer stays valid across moves of the model).
class Builder {
 public:
  Builder(Flavor flavor, const BuildOptions& options, ta::Network& net,
          Handles& handles)
      : flavor_(flavor),
        options_(options),
        timing_(options.timing),
        net_(net),
        h_(handles) {
    AHB_EXPECTS(timing_.valid());
    AHB_EXPECTS(!is_multi(flavor) || options.participants >= 1);
  }

  void build() {
    const int n = is_multi(flavor_) ? options_.participants : 1;
    // Shared flag (no owning automaton): lives in the collapse root.
    h_.lost = net_.add_var("lost", 0, 0, 1);
    if (has_join_phase()) {
      h_.stale_join = net_.add_var("stale_join", 0, 0, 1);
    }

    // Channel declarations first: edges reference them from every side.
    if (is_multi(flavor_)) {
      bcast0_ = net_.add_channel("bcast0", ChanKind::Broadcast);
    } else {
      to_ch_ = net_.add_channel("to_ch", ChanKind::Handshake);
    }
    for (int i = 1; i <= n; ++i) {
      deliver_p_.push_back(
          net_.add_channel(strprintf("deliver_p%d", i), ChanKind::Broadcast));
      reply_true_.push_back(
          net_.add_channel(strprintf("reply%d", i), ChanKind::Handshake));
      deliver_p0_true_.push_back(net_.add_channel(
          strprintf("deliver_p0_from%d", i), ChanKind::Broadcast));
      if (leaves()) {
        reply_false_.push_back(net_.add_channel(
            strprintf("reply_false%d", i), ChanKind::Handshake));
        deliver_p0_false_.push_back(net_.add_channel(
            strprintf("deliver_p0_false_from%d", i), ChanKind::Broadcast));
      }
      if (has_join_phase()) {
        join_send_.push_back(net_.add_channel(strprintf("join_send%d", i),
                                              ChanKind::Handshake));
        // Join-beat deliveries get their own broadcast channel so the
        // p[0] receive edge is a distinguishable action: a replayed
        // trace with message identity can tell a delivered join beat
        // from a delivered reply even though both carry the same
        // payload on the wire.
        deliver_p0_join_.push_back(net_.add_channel(
            strprintf("deliver_p0_join_from%d", i), ChanKind::Broadcast));
      }
    }

    h_.parts.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      auto& p = h_.parts[static_cast<std::size_t>(i)];
      p.ch_deliver_beat = deliver_p0_true_[static_cast<std::size_t>(i)];
      if (leaves()) {
        p.ch_deliver_leave = deliver_p0_false_[static_cast<std::size_t>(i)];
      }
      if (has_join_phase()) {
        p.ch_deliver_join = deliver_p0_join_[static_cast<std::size_t>(i)];
      }
    }
    build_p0(n);
    for (int i = 0; i < n; ++i) build_participant(i);
    for (int i = 0; i < n; ++i) build_channel(i);
    if (has_join_phase()) {
      for (int i = 0; i < n; ++i) build_join_channel(i);
    }
    if (options_.r1_monitor) {
      for (int i = 0; i < n; ++i) build_monitor(i);
    }

    // Instrument hooks see the finished protocol (including watchdogs)
    // but run before reductions are declared and the network freezes,
    // so observer automata they add can still declare locations, clocks
    // and edges. They stay outside every symmetry block by design.
    if (instrument_ != nullptr && *instrument_) (*instrument_)(net_, h_);

    declare_reductions(n);
    net_.freeze();
  }

  void set_instrument(const HeartbeatModel::Instrument* instrument) {
    instrument_ = instrument;
  }

 private:
  // Variant-dependent structure, all answered by the shared rule table.
  bool has_join_phase() const { return proto::variant_joins(flavor_); }
  bool leaves() const { return proto::variant_leaves(flavor_); }
  bool initial_beat() const {
    return proto::rules_for(flavor_).initial_beat;
  }

  void build_p0(int n) {
    auto& h = h_;
    h.p0 = net_.add_automaton("p0");
    // All of p[0]'s bookkeeping is declared as owned by p0, so the
    // collapse codec folds it into p0's component; waiting times range
    // over [0, tmax] (kInactivateWait == 0 included).
    h.active0 = net_.add_var("active0", 1, 0, 1, h.p0);
    h.t = net_.add_var("t", timing_.tmax, 0, timing_.tmax, h.p0);
    h.waiting = net_.add_clock("waiting", timing_.tmax + 1);
    for (int i = 0; i < n; ++i) {
      auto& p = h.parts[static_cast<std::size_t>(i)];
      p.rcvd0 = net_.add_var(strprintf("rcvd%d", i + 1), 1, 0, 1, h.p0);
      if (is_multi(flavor_)) {
        p.tm = net_.add_var(strprintf("tm%d", i + 1), timing_.tmax, 0,
                            timing_.tmax, h.p0);
      }
      if (has_join_phase()) {
        p.jnd = net_.add_var(strprintf("jnd%d", i + 1), 0, 0, 1, h.p0);
      }
    }

    const VarId active0 = h.active0;
    const VarId t_var = h.t;
    const ClockId waiting = h.waiting;
    const Timing timing = timing_;
    const Handles* hp = &h_;

    // Locations. `Alive` has the invariant waiting <= t.
    h.l_alive = net_.add_location(
        h.p0, "Alive", LocKind::Normal,
        [t_var, waiting](const StateView& v) {
          return v.clk(waiting) <= v.var(t_var);
        });
    h.l_timeout = net_.add_location(h.p0, "TimeOut", LocKind::Committed);
    h.l_v = net_.add_location(h.p0, "VInactivated");
    h.l_nv = net_.add_location(h.p0, "NVInactivated");
    if (initial_beat()) {
      h.l_init = net_.add_location(h.p0, "Init", LocKind::Urgent);
      net_.set_initial(h.p0, h.l_init);
    }

    // Voluntary crash, possible at any time while alive.
    net_.add_edge(h.p0, Edge{.src = h.l_alive,
                             .dst = h.l_v,
                             .effect = [active0](StateMut& m) {
                               m.set(active0, 0);
                             },
                             .label = "crash"});

    // Beat receipt. One receive edge per participant; broadcast
    // deliveries reach p[0] and the monitors simultaneously.
    for (int i = 0; i < n; ++i) {
      auto& p = h.parts[static_cast<std::size_t>(i)];
      const VarId rcvd0 = p.rcvd0;
      const VarId jnd = p.jnd;
      const VarId tm = p.tm;
      const bool join = has_join_phase();
      const int tmax = timing_.tmax;
      net_.add_edge(h.p0,
                    Edge{.src = h.l_alive,
                         .dst = h.l_alive,
                         .chan = deliver_p0_true_[static_cast<std::size_t>(i)],
                         .dir = SyncDir::Recv,
                         .effect =
                             [rcvd0, jnd, tm, join, tmax](StateMut& m) {
                               // Registration of a (re)joining process
                               // starts its waiting time from tmax again,
                               // exactly like the hb coordinator does —
                               // without this, a process that left with a
                               // decayed tm[i] and later rejoined would
                               // inherit the stale value.
                               if (join && m.var(jnd) == 0) m.set(tm, tmax);
                               m.set(rcvd0, 1);
                               if (join) m.set(jnd, 1);
                             },
                         .label = strprintf("recv_beat_from_p%d", i + 1)});
      if (join) {
        // Same registration effect, distinct action: the beat arrived
        // over the join channel rather than as a round-trip reply.
        net_.add_edge(
            h.p0,
            Edge{.src = h.l_alive,
                 .dst = h.l_alive,
                 .chan = deliver_p0_join_[static_cast<std::size_t>(i)],
                 .dir = SyncDir::Recv,
                 .effect =
                     [rcvd0, jnd, tm, tmax](StateMut& m) {
                       if (m.var(jnd) == 0) m.set(tm, tmax);
                       m.set(rcvd0, 1);
                       m.set(jnd, 1);
                     },
                 .label = strprintf("recv_join_from_p%d", i + 1)});
      }
      if (leaves()) {
        net_.add_edge(
            h.p0,
            Edge{.src = h.l_alive,
                 .dst = h.l_alive,
                 .chan = deliver_p0_false_[static_cast<std::size_t>(i)],
                 .dir = SyncDir::Recv,
                 .effect =
                     [rcvd0, jnd](StateMut& m) {
                       m.set(jnd, 0);
                       m.set(rcvd0, 0);
                     },
                 .label = strprintf("recv_leave_from_p%d", i + 1)});
      }
    }

    // Timeout: enter the committed decision location. With the Section 6
    // fix, pending deliveries towards p[0] take precedence.
    {
      ta::Guard guard;
      if (options_.use_receive_priority()) {
        guard = [t_var, waiting, hp](const StateView& v) {
          return v.clk(waiting) == v.var(t_var) &&
                 !any_delivery_pending(v, hp) && !forced_join_pending(v, hp);
        };
      } else {
        guard = [t_var, waiting](const StateView& v) {
          return v.clk(waiting) == v.var(t_var);
        };
      }
      net_.add_edge(h.p0, Edge{.src = h.l_alive,
                               .dst = h.l_timeout,
                               .guard = std::move(guard),
                               .label = "timeout"});
    }

    // The round computation shared by the continue/inactivate guards:
    // the minimum next waiting time across participating processes.
    std::vector<VarId> rcvds, tms, jnds;
    for (const auto& p : h.parts) {
      rcvds.push_back(p.rcvd0);
      tms.push_back(p.tm);
      jnds.push_back(p.jnd);
    }
    const bool multi = is_multi(flavor_);
    const bool join = has_join_phase();
    const Flavor flavor = flavor_;
    const auto min_next = [multi, join, flavor, rcvds, tms, jnds, t_var,
                           timing](const StateView& v) {
      if (!multi) {
        return next_waiting_time(v.var(rcvds[0]) != 0, v.var(t_var), timing,
                                 flavor);
      }
      int min_t = timing.tmax;
      for (std::size_t i = 0; i < rcvds.size(); ++i) {
        if (join && v.var(jnds[i]) == 0) continue;
        min_t =
            std::min(min_t, next_waiting_time(v.var(rcvds[i]) != 0,
                                              v.var(tms[i]), timing, flavor));
      }
      return min_t;
    };

    // Continue: send/broadcast the next beat and start the next round.
    {
      Edge e;
      e.src = h.l_timeout;
      e.dst = h.l_alive;
      if (multi) {
        e.chan = bcast0_;
        e.label = "broadcast_beat";
      } else {
        e.chan = to_ch_;
        e.label = "send_beat";
      }
      e.dir = SyncDir::Send;
      e.guard = [min_next, timing](const StateView& v) {
        return !proto::wait_inactivates(min_next(v), timing.to_proto());
      };
      e.effect = [multi, join, flavor, rcvds, tms, jnds, t_var, waiting,
                  timing](StateMut& m) {
        int min_t = timing.tmax;
        if (multi) {
          for (std::size_t i = 0; i < rcvds.size(); ++i) {
            if (join && m.var(jnds[i]) == 0) {
              m.set(rcvds[i], 0);
              continue;
            }
            const int next = next_waiting_time(m.var(rcvds[i]) != 0,
                                               m.var(tms[i]), timing, flavor);
            m.set(tms[i], next);
            m.set(rcvds[i], 0);
            min_t = std::min(min_t, next);
          }
        } else {
          min_t = next_waiting_time(m.var(rcvds[0]) != 0, m.var(t_var), timing,
                                    flavor);
          m.set(rcvds[0], 0);
        }
        m.set(t_var, min_t);
        m.reset(waiting);
      };
      net_.add_edge(h.p0, std::move(e));
    }

    // Non-voluntary inactivation: the next waiting time fell below tmin.
    net_.add_edge(h.p0, Edge{.src = h.l_timeout,
                             .dst = h.l_nv,
                             .guard =
                                 [min_next, timing](const StateView& v) {
                                   return proto::wait_inactivates(
                                       min_next(v), timing.to_proto());
                                 },
                             .effect =
                                 [active0](StateMut& m) { m.set(active0, 0); },
                             .label = "nv_inactivate"});

    // Revised binary: an immediate first beat before the first wait.
    if (initial_beat()) {
      const VarId rcvd0 = h.parts[0].rcvd0;
      net_.add_edge(h.p0, Edge{.src = h.l_init,
                               .dst = h.l_alive,
                               .chan = to_ch_,
                               .dir = SyncDir::Send,
                               .effect =
                                   [rcvd0, waiting](StateMut& m) {
                                     m.set(rcvd0, 0);
                                     m.reset(waiting);
                                   },
                               .label = "initial_beat"});
    }
  }

  void build_participant(int i) {
    auto& p = h_.parts[static_cast<std::size_t>(i)];
    const auto idx = static_cast<std::size_t>(i);
    p.proc = net_.add_automaton(strprintf("p%d", i + 1));
    p.active = net_.add_var(strprintf("active%d", i + 1), 1, 0, 1, p.proc);

    const int joined_bound = participant_bound(timing_, options_.use_corrected_bounds());
    const int joining_bound = join_bound(timing_, options_.use_corrected_bounds());
    const int wfb_cap = std::max(joined_bound, joining_bound) + 1;
    p.wfb = net_.add_clock(strprintf("wfb%d", i + 1), wfb_cap);

    const ClockId wfb = p.wfb;
    const VarId active = p.active;
    const Handles* hp = &h_;
    if (leaves()) {
      p.left = net_.add_var(strprintf("left%d", i + 1), 0, 0, 1, p.proc);
    }

    // Locations.
    p.l_alive = net_.add_location(
        p.proc, "Alive", LocKind::Normal,
        [wfb, joined_bound](const StateView& v) {
          return v.clk(wfb) <= joined_bound;
        });
    p.l_rcvd = net_.add_location(p.proc, "Rcvd", LocKind::Committed);
    p.l_v = net_.add_location(p.proc, "VInactivated");
    p.l_nv = net_.add_location(p.proc, "NVInactivated");

    // With the Section 6 fix, a pending delivery towards p[i] takes
    // precedence over the inactivation timeout.
    const auto deadline_guard = [this, hp, wfb](int bound) {
      ta::Guard guard;
      if (options_.use_receive_priority()) {
        guard = [hp, wfb, bound](const StateView& v) {
          return v.clk(wfb) == bound && !any_delivery_pending(v, hp);
        };
      } else {
        guard = [wfb, bound](const StateView& v) {
          return v.clk(wfb) == bound;
        };
      }
      return guard;
    };

    if (has_join_phase()) {
      const int jperiod =
          static_cast<int>(proto::join_beat_period(timing_.to_proto()));
      p.wtj = net_.add_clock(strprintf("wtj%d", i + 1), jperiod + 1);
      const ClockId wtj = p.wtj;
      p.l_joining = net_.add_location(
          p.proc, "Joining", LocKind::Normal,
          [wfb, wtj, joining_bound, jperiod](const StateView& v) {
            return v.clk(wfb) <= joining_bound && v.clk(wtj) <= jperiod;
          });
      net_.set_initial(p.proc, p.l_joining);

      // Join beats every join period until joined; per Fig. 6 the
      // *first* join beat is also sent one period after start-up (not
      // at time zero), which is what allows a join request to reach
      // p[0] right after one of its timeouts (the Fig. 13 scenario).
      net_.add_edge(p.proc, Edge{.src = p.l_joining,
                                 .dst = p.l_joining,
                                 .chan = join_send_[idx],
                                 .dir = SyncDir::Send,
                                 .guard =
                                     [wtj, jperiod](const StateView& v) {
                                       return v.clk(wtj) == jperiod;
                                     },
                                 .effect =
                                     [wtj](StateMut& m) { m.reset(wtj); },
                                 .label = "join_beat"});
      // Receiving p[0]'s beat completes the join; the reply is sent from
      // the committed Rcvd location like any other beat.
      net_.add_edge(p.proc, Edge{.src = p.l_joining,
                                 .dst = p.l_rcvd,
                                 .chan = deliver_p_[idx],
                                 .dir = SyncDir::Recv,
                                 .label = "recv_first_beat"});
      // Join-phase deadline.
      net_.add_edge(p.proc, Edge{.src = p.l_joining,
                                 .dst = p.l_nv,
                                 .guard = deadline_guard(joining_bound),
                                 .effect =
                                     [active](StateMut& m) {
                                       m.set(active, 0);
                                     },
                                 .label = "nv_inactivate_joining"});
      // Crash while joining.
      net_.add_edge(p.proc, Edge{.src = p.l_joining,
                                 .dst = p.l_v,
                                 .effect =
                                     [active](StateMut& m) {
                                       m.set(active, 0);
                                     },
                                 .label = "crash_joining"});
    }

    // Beat receipt when participating.
    net_.add_edge(p.proc, Edge{.src = p.l_alive,
                               .dst = p.l_rcvd,
                               .chan = deliver_p_[idx],
                               .dir = SyncDir::Recv,
                               .label = "recv_beat"});
    // Immediate reply from the committed location. The reply and leave
    // edges (both sides of the handshake) are POR-invisible: they write
    // only p[i]'s own wfb/wtj/left, which no other automaton and no
    // predicate reads, and the locations they move through are never
    // tested by a predicate (Rcvd/Alive/Left are not the NV sinks).
    // Receive-priority guards read the channel locations they change,
    // but those guards sit on non-committed sources, which cannot fire
    // before the committed Rcvd location is vacated — so deferring them
    // past the reply is exactly the engine's instantaneous-reply order.
    net_.add_edge(p.proc, Edge{.src = p.l_rcvd,
                               .dst = p.l_alive,
                               .chan = reply_true_[idx],
                               .dir = SyncDir::Send,
                               .effect = [wfb](StateMut& m) { m.reset(wfb); },
                               .label = "send_reply",
                               .invisible = true});
    if (leaves()) {
      // Alternatively, reply with a leave beat and depart gracefully.
      p.l_left = net_.add_location(p.proc, "Left");
      const VarId left = p.left;
      // The leave reply also restarts wtj, which then measures the time
      // since departure (used by the graceful-rejoin guard below).
      const ClockId wtj_leave = p.wtj;
      net_.add_edge(p.proc, Edge{.src = p.l_rcvd,
                                 .dst = p.l_left,
                                 .chan = reply_false_[idx],
                                 .dir = SyncDir::Send,
                                 .effect =
                                     [left, wtj_leave](StateMut& m) {
                                       m.set(left, 1);
                                       m.reset(wtj_leave);
                                     },
                                 .label = "send_leave",
                                 .invisible = true});
      if (options_.rejoin != BuildOptions::Rejoin::None) {
        // Future-work extension: a departed process may decide to
        // participate again; it restarts the join phase from scratch.
        // The graceful variant first lets the in-flight leave beat
        // drain (its delivery is bounded by tmin).
        const ClockId wtj = p.wtj;
        // wtj measures time since the leave beat; the earliest safe
        // rejoin offset is proto::earliest_rejoin relative to it.
        const int drain = static_cast<int>(
            proto::earliest_rejoin(0, timing_.to_proto()));
        ta::Guard guard;
        if (options_.rejoin == BuildOptions::Rejoin::Graceful) {
          guard = [wtj, drain](const StateView& v) {
            return v.clk(wtj) >= drain;
          };
        }
        net_.add_edge(p.proc, Edge{.src = p.l_left,
                                   .dst = p.l_joining,
                                   .guard = std::move(guard),
                                   .effect =
                                       [left, wfb, wtj](StateMut& m) {
                                         m.set(left, 0);
                                         m.reset(wfb);
                                         m.reset(wtj);
                                       },
                                   .label = "rejoin"});
      }
    }
    // Crash while alive.
    net_.add_edge(p.proc, Edge{.src = p.l_alive,
                               .dst = p.l_v,
                               .effect =
                                   [active](StateMut& m) { m.set(active, 0); },
                               .label = "crash"});
    // Deadline while participating.
    net_.add_edge(p.proc, Edge{.src = p.l_alive,
                               .dst = p.l_nv,
                               .guard = deadline_guard(joined_bound),
                               .effect =
                                   [active](StateMut& m) { m.set(active, 0); },
                               .label = "nv_inactivate"});
  }

  void build_channel(int i) {
    auto& p = h_.parts[static_cast<std::size_t>(i)];
    const auto idx = static_cast<std::size_t>(i);
    p.ch = net_.add_automaton(strprintf("ch%d", i + 1));
    p.delay = net_.add_clock(strprintf("delay%d", i + 1), timing_.tmin + 1);

    const ClockId delay = p.delay;
    const int tmin = timing_.tmin;
    const VarId lost = h_.lost;
    const VarId active = p.active;

    const auto bounded = [delay, tmin](const StateView& v) {
      return v.clk(delay) <= tmin;
    };

    p.ch_idle = net_.add_location(p.ch, "Idle");
    p.ch_t0 =
        net_.add_location(p.ch, "BeatInTransit", LocKind::Normal, bounded);
    p.ch_w1 =
        net_.add_location(p.ch, "AwaitingReply", LocKind::Normal, bounded);
    p.ch_t1 =
        net_.add_location(p.ch, "ReplyInTransit", LocKind::Normal, bounded);
    if (leaves()) {
      p.ch_t1f =
          net_.add_location(p.ch, "LeaveInTransit", LocKind::Normal, bounded);
    }

    // Accept p[0]'s beat. Multi flavors receive the broadcast; in the
    // expanding/dynamic flavors only channels of registered (joined)
    // participants carry the beat, since p[0] addresses its heartbeat to
    // its joined list (this is what makes the Fig. 13 scenario possible).
    {
      Edge e;
      e.src = p.ch_idle;
      e.dst = p.ch_t0;
      e.dir = SyncDir::Recv;
      e.label = "accept_beat";
      e.effect = [delay](StateMut& m) { m.reset(delay); };
      if (is_multi(flavor_)) {
        e.chan = bcast0_;
        if (has_join_phase()) {
          const VarId jnd = p.jnd;
          e.guard = [jnd](const StateView& v) { return v.var(jnd) == 1; };
        }
      } else {
        e.chan = to_ch_;
      }
      net_.add_edge(p.ch, std::move(e));
    }

    // First leg: lose or deliver to p[i].
    net_.add_edge(p.ch, Edge{.src = p.ch_t0,
                             .dst = p.ch_idle,
                             .effect = [lost](StateMut& m) { m.set(lost, 1); },
                             .label = "lose_beat"});
    net_.add_edge(p.ch, Edge{.src = p.ch_t0,
                             .dst = p.ch_w1,
                             .chan = deliver_p_[idx],
                             .dir = SyncDir::Send,
                             .label = "deliver_beat"});

    // Awaiting the reply; if p[i] is no longer participating (crashed,
    // inactivated, or departed) no reply will ever come, so the channel
    // gives up waiting.
    const Handles* hp = &h_;
    net_.add_edge(p.ch, Edge{.src = p.ch_w1,
                             .dst = p.ch_t1,
                             .chan = reply_true_[idx],
                             .dir = SyncDir::Recv,
                             .label = "accept_reply",
                             .invisible = true});
    net_.add_edge(p.ch, Edge{.src = p.ch_w1,
                             .dst = p.ch_idle,
                             .guard =
                                 [active, hp, idx](const StateView& v) {
                                   const auto& part = hp->parts[idx];
                                   if (v.var(active) == 0) return true;
                                   const auto loc = v.loc(part.proc);
                                   if (part.l_left >= 0 && loc == part.l_left) {
                                     return true;
                                   }
                                   // A beat that was delivered while the
                                   // process had departed will never be
                                   // answered, even if the process has
                                   // meanwhile re-entered the join phase.
                                   return part.l_joining >= 0 &&
                                          loc == part.l_joining;
                                 },
                             .label = "abort_wait"});
    if (leaves()) {
      net_.add_edge(p.ch, Edge{.src = p.ch_w1,
                               .dst = p.ch_t1f,
                               .chan = reply_false_[idx],
                               .dir = SyncDir::Recv,
                               .label = "accept_leave",
                               .invisible = true});
      net_.add_edge(p.ch,
                    Edge{.src = p.ch_t1f,
                         .dst = p.ch_idle,
                         .effect = [lost](StateMut& m) { m.set(lost, 1); },
                         .label = "lose_leave"});
      net_.add_edge(p.ch, Edge{.src = p.ch_t1f,
                               .dst = p.ch_idle,
                               .chan = deliver_p0_false_[idx],
                               .dir = SyncDir::Send,
                               .label = "deliver_leave"});
    }

    // Second leg: lose or deliver the reply to p[0].
    net_.add_edge(p.ch, Edge{.src = p.ch_t1,
                             .dst = p.ch_idle,
                             .effect = [lost](StateMut& m) { m.set(lost, 1); },
                             .label = "lose_reply"});
    net_.add_edge(p.ch, Edge{.src = p.ch_t1,
                             .dst = p.ch_idle,
                             .chan = deliver_p0_true_[idx],
                             .dir = SyncDir::Send,
                             .label = "deliver_reply"});
  }

  void build_join_channel(int i) {
    auto& p = h_.parts[static_cast<std::size_t>(i)];
    const auto idx = static_cast<std::size_t>(i);
    p.jch = net_.add_automaton(strprintf("jch%d", i + 1));
    // The channel assumption budgets tmin per message exchange; the
    // published R2 counterexamples need the full budget on this one-way
    // leg (a join sent tmin before a round close, arriving at it).
    const int jbound = timing_.tmin;
    h_.jch_bound = jbound;
    p.jdelay = net_.add_clock(strprintf("jdelay%d", i + 1), jbound + 1);

    const ClockId jdelay = p.jdelay;
    const VarId lost = h_.lost;

    p.jch_idle = net_.add_location(p.jch, "Idle");
    p.jch_t = net_.add_location(p.jch, "JoinInTransit", LocKind::Normal,
                                [jdelay, jbound](const StateView& v) {
                                  return v.clk(jdelay) <= jbound;
                                });

    net_.add_edge(p.jch, Edge{.src = p.jch_idle,
                              .dst = p.jch_t,
                              .chan = join_send_[idx],
                              .dir = SyncDir::Recv,
                              .effect =
                                  [jdelay](StateMut& m) { m.reset(jdelay); },
                              .label = "accept_join"});
    net_.add_edge(p.jch, Edge{.src = p.jch_t,
                              .dst = p.jch_idle,
                              .effect = [lost](StateMut& m) { m.set(lost, 1); },
                              .label = "lose_join"});
    // A join beat still in flight once p[i] left the join phase is
    // delivered like any other flag message: the engine coordinator
    // registers `rcvd` for whatever arrives, so the model must too
    // (the old guard `loc == l_joining` on the delivery voided stale
    // joins and made engine traces with a post-join delivery
    // unreplayable — see DESIGN.md, resolved divergence (b)). The
    // stale delivery latches `stale_join`, which the R3 predicate
    // conditions on: the paper's analysis assumes a quiet join channel
    // after joining, so runs outside that assumption don't witness a
    // violation (the role `lost` plays for channel loss). `void_join`
    // stays as pure channel freedom: the message may also vanish
    // silently without raising `lost`, which keeps the lost==0
    // verification slice an over-approximation of the engine's
    // perfect-channel runs.
    const Handles* hp = &h_;
    const VarId stale = h_.stale_join;
    net_.add_edge(p.jch, Edge{.src = p.jch_t,
                              .dst = p.jch_idle,
                              .chan = deliver_p0_join_[idx],
                              .dir = SyncDir::Send,
                              .guard =
                                  [hp, idx](const StateView& v) {
                                    const auto& part = hp->parts[idx];
                                    return v.loc(part.proc) == part.l_joining;
                                  },
                              .label = "deliver_join"});
    net_.add_edge(p.jch, Edge{.src = p.jch_t,
                              .dst = p.jch_idle,
                              .chan = deliver_p0_join_[idx],
                              .dir = SyncDir::Send,
                              .guard =
                                  [hp, idx](const StateView& v) {
                                    const auto& part = hp->parts[idx];
                                    return v.loc(part.proc) != part.l_joining;
                                  },
                              .effect =
                                  [stale](StateMut& m) { m.set(stale, 1); },
                              .label = "deliver_join_stale"});
    net_.add_edge(p.jch, Edge{.src = p.jch_t,
                              .dst = p.jch_idle,
                              .guard =
                                  [hp, idx](const StateView& v) {
                                    const auto& part = hp->parts[idx];
                                    return v.loc(part.proc) != part.l_joining;
                                  },
                              .label = "void_join"});
  }

  void build_monitor(int i) {
    auto& p = h_.parts[static_cast<std::size_t>(i)];
    const auto idx = static_cast<std::size_t>(i);
    p.mon = net_.add_automaton(strprintf("mon%d", i + 1));
    const int bound = r1_bound(timing_, options_.use_corrected_bounds());
    p.mdelay = net_.add_clock(strprintf("mdelay%d", i + 1), bound + 1);

    const ClockId mdelay = p.mdelay;
    const VarId active0 = h_.active0;

    p.mon_wait = net_.add_location(p.mon, "Waiting");
    p.mon_armed = net_.add_location(p.mon, "Armed");
    p.mon_error = net_.add_location(p.mon, "ErrorR1");

    // Binary and static participants are expected from the start; in the
    // expanding/dynamic flavors the watchdog arms on the first beat that
    // actually reaches p[0] (and disarms on a delivered leave beat).
    if (!has_join_phase()) net_.set_initial(p.mon, p.mon_armed);

    net_.add_edge(p.mon, Edge{.src = p.mon_wait,
                              .dst = p.mon_armed,
                              .chan = deliver_p0_true_[idx],
                              .dir = SyncDir::Recv,
                              .effect =
                                  [mdelay](StateMut& m) { m.reset(mdelay); },
                              .label = "arm"});
    net_.add_edge(p.mon, Edge{.src = p.mon_armed,
                              .dst = p.mon_armed,
                              .chan = deliver_p0_true_[idx],
                              .dir = SyncDir::Recv,
                              .effect =
                                  [mdelay](StateMut& m) { m.reset(mdelay); },
                              .label = "observe_beat"});
    if (has_join_phase()) {
      // Join-beat deliveries moved to their own channel; the watchdog
      // still treats them as beats reaching p[0] (R1's clock is about
      // p[0] hearing *something*, not about which channel carried it).
      net_.add_edge(p.mon, Edge{.src = p.mon_wait,
                                .dst = p.mon_armed,
                                .chan = deliver_p0_join_[idx],
                                .dir = SyncDir::Recv,
                                .effect =
                                    [mdelay](StateMut& m) { m.reset(mdelay); },
                                .label = "arm"});
      net_.add_edge(p.mon, Edge{.src = p.mon_armed,
                                .dst = p.mon_armed,
                                .chan = deliver_p0_join_[idx],
                                .dir = SyncDir::Recv,
                                .effect =
                                    [mdelay](StateMut& m) { m.reset(mdelay); },
                                .label = "observe_beat"});
    }
    if (leaves()) {
      net_.add_edge(p.mon, Edge{.src = p.mon_armed,
                                .dst = p.mon_wait,
                                .chan = deliver_p0_false_[idx],
                                .dir = SyncDir::Recv,
                                .label = "disarm_on_leave"});
    }
    net_.add_edge(p.mon, Edge{.src = p.mon_armed,
                              .dst = p.mon_error,
                              .guard =
                                  [mdelay, active0, bound](const StateView& v) {
                                    return v.var(active0) == 1 &&
                                           v.clk(mdelay) > bound;
                                  },
                              .label = "error_r1"});
  }

  /// Reduction declarations, consumed only when a search opts in via
  /// SearchLimits::symmetry; the default semantics and state counts are
  /// untouched. Soundness rests on two facts about this builder:
  /// every participant is built by the same code (so the blocks are
  /// congruent), and every shared guard (min_next,
  /// any_delivery_pending, forced_join_pending) and every verification
  /// predicate (r1, r2_violation_any, r3) quantifies symmetrically over
  /// the participants. r2_violation(i) for a fixed i is the one
  /// asymmetric predicate in this file; it must not be combined with
  /// Symmetry::Participants.
  void declare_reductions(int n) {
    // Full symmetry (scalarset) over the participants: everything a
    // participant owns travels in its block — its process, channel,
    // join-channel and monitor automata, its clocks, and p[0]'s
    // per-participant bookkeeping (rcvd/tm/jnd) — so permuting blocks
    // is exactly renaming participants. With n == 1 the single block is
    // ignored at freeze (no symmetry to exploit).
    for (int i = 0; i < n; ++i) {
      const auto& p = h_.parts[static_cast<std::size_t>(i)];
      ta::Network::SymmetryMember m;
      m.automata.push_back(p.proc);
      m.automata.push_back(p.ch);
      if (has_join_phase()) m.automata.push_back(p.jch);
      if (options_.r1_monitor) m.automata.push_back(p.mon);
      m.vars.push_back(p.active);
      m.vars.push_back(p.rcvd0);
      if (is_multi(flavor_)) m.vars.push_back(p.tm);
      if (has_join_phase()) m.vars.push_back(p.jnd);
      if (leaves()) m.vars.push_back(p.left);
      m.clocks.push_back(p.wfb);
      m.clocks.push_back(p.delay);
      if (has_join_phase()) {
        m.clocks.push_back(p.wtj);
        m.clocks.push_back(p.jdelay);
      }
      if (options_.r1_monitor) m.clocks.push_back(p.mdelay);
      net_.add_symmetry_block(std::move(m));
    }

    // Dead-slot rules: each slot below is rewritten on every path from
    // the given location to its next read, so canonicalization may zero
    // it there without changing any guard or predicate outcome.
    for (const auto& p : h_.parts) {
      // wfb is read only by the Alive/Joining invariants and deadline
      // guards; send_reply and rejoin reset it before re-entry.
      net_.declare_dead_clock(p.proc, p.l_rcvd, p.wfb);
      net_.declare_dead_clock(p.proc, p.l_v, p.wfb);
      net_.declare_dead_clock(p.proc, p.l_nv, p.wfb);
      if (p.l_left >= 0) net_.declare_dead_clock(p.proc, p.l_left, p.wfb);
      if (has_join_phase()) {
        // wtj is read only by the Joining invariant, the join_beat
        // guard and the Left rejoin guard; send_leave and rejoin reset
        // it on the way into those locations.
        net_.declare_dead_clock(p.proc, p.l_alive, p.wtj);
        net_.declare_dead_clock(p.proc, p.l_rcvd, p.wtj);
        net_.declare_dead_clock(p.proc, p.l_v, p.wtj);
        net_.declare_dead_clock(p.proc, p.l_nv, p.wtj);
        if (p.l_left >= 0 && options_.rejoin == BuildOptions::Rejoin::None) {
          net_.declare_dead_clock(p.proc, p.l_left, p.wtj);
        }
      }
      // Channel delay clocks are reset by every accept edge.
      net_.declare_dead_clock(p.ch, p.ch_idle, p.delay);
      if (has_join_phase()) {
        net_.declare_dead_clock(p.jch, p.jch_idle, p.jdelay);
      }
      if (options_.r1_monitor) {
        // mdelay is reset by arm; ErrorR1 is a sink location.
        net_.declare_dead_clock(p.mon, p.mon_wait, p.mdelay);
        net_.declare_dead_clock(p.mon, p.mon_error, p.mdelay);
      }
    }
    // Once p[0] is inactivated its round bookkeeping is unreachable: no
    // edge leaves V/NV, and the predicates read only active0, lost,
    // stale_join and the participants' active/jnd flags.
    for (const int loc : {h_.l_v, h_.l_nv}) {
      net_.declare_dead_clock(h_.p0, loc, h_.waiting);
      net_.declare_dead_var(h_.p0, loc, h_.t, 0);
      for (const auto& p : h_.parts) {
        net_.declare_dead_var(h_.p0, loc, p.rcvd0, 0);
        if (is_multi(flavor_)) net_.declare_dead_var(h_.p0, loc, p.tm, 0);
      }
    }
  }

  Flavor flavor_;
  BuildOptions options_;
  Timing timing_;
  ta::Network& net_;
  Handles& h_;

  ChanId bcast0_{};
  ChanId to_ch_{};
  std::vector<ChanId> deliver_p_;
  std::vector<ChanId> reply_true_;
  std::vector<ChanId> reply_false_;
  std::vector<ChanId> deliver_p0_true_;
  std::vector<ChanId> deliver_p0_false_;
  std::vector<ChanId> join_send_;
  std::vector<ChanId> deliver_p0_join_;
  const HeartbeatModel::Instrument* instrument_ = nullptr;
};

}  // namespace

HeartbeatModel HeartbeatModel::build(Flavor flavor,
                                     const BuildOptions& options) {
  HeartbeatModel model;
  model.handles_ = std::make_unique<Handles>();
  model.flavor_ = flavor;
  model.options_ = options;
  Builder builder{flavor, options, model.net_, *model.handles_};
  builder.build();
  return model;
}

HeartbeatModel HeartbeatModel::build(Flavor flavor, const BuildOptions& options,
                                     const Instrument& instrument) {
  HeartbeatModel model;
  model.handles_ = std::make_unique<Handles>();
  model.flavor_ = flavor;
  model.options_ = options;
  Builder builder{flavor, options, model.net_, *model.handles_};
  builder.set_instrument(&instrument);
  builder.build();
  return model;
}

mc::Pred HeartbeatModel::r1_violation() const {
  AHB_EXPECTS(options_.r1_monitor);
  std::vector<std::pair<ta::AutomatonId, int>> errors;
  for (const auto& p : handles_->parts) {
    errors.emplace_back(p.mon, p.mon_error);
  }
  return [errors](const StateView& v) {
    return std::any_of(errors.begin(), errors.end(), [&](const auto& e) {
      return v.loc(e.first) == e.second;
    });
  };
}

namespace {

/// Participant j does not legitimise someone else's inactivation if it
/// is still alive (it may have left gracefully) or if p[0] never
/// registered it as joined.
bool participant_ok(const StateView& v,
                    const HeartbeatModel::Participant& p) {
  if (v.var(p.active) == 1) return true;
  if (p.jnd.value >= 0 && v.var(p.jnd) == 0) return true;
  return false;
}

}  // namespace

mc::Pred HeartbeatModel::r2_violation(int i) const {
  AHB_EXPECTS(i >= 0 && i < static_cast<int>(handles_->parts.size()));
  const Handles* h = handles_.get();
  return [h, i](const StateView& v) {
    const auto& target = h->parts[static_cast<std::size_t>(i)];
    if (v.loc(target.proc) != target.l_nv) return false;
    if (v.var(h->lost) != 0) return false;
    if (v.var(h->active0) != 1) return false;
    for (std::size_t j = 0; j < h->parts.size(); ++j) {
      if (static_cast<int>(j) == i) continue;
      if (!participant_ok(v, h->parts[j])) return false;
    }
    return true;
  };
}

mc::Pred HeartbeatModel::r2_violation_any() const {
  std::vector<mc::Pred> per_part;
  for (int i = 0; i < static_cast<int>(handles_->parts.size()); ++i) {
    per_part.push_back(r2_violation(i));
  }
  return [per_part](const StateView& v) {
    return std::any_of(per_part.begin(), per_part.end(),
                       [&](const auto& p) { return p(v); });
  };
}

mc::Pred HeartbeatModel::r3_violation() const {
  const Handles* h = handles_.get();
  return [h](const StateView& v) {
    if (v.loc(h->p0) != h->l_nv) return false;
    if (v.var(h->lost) != 0) return false;
    // A delivered stale join re-registers a departed member and can
    // legitimately drag the ladder dry (engine semantics); the paper's
    // R3 claim assumes that never happens, so such runs are excused.
    if (h->stale_join.value >= 0 && v.var(h->stale_join) != 0) return false;
    for (const auto& p : h->parts) {
      if (!participant_ok(v, p)) return false;
    }
    return true;
  };
}

Verdicts verify_requirements(Flavor flavor, BuildOptions options,
                             const mc::SearchLimits& limits) {
  Verdicts out;
  {
    BuildOptions with_monitor = options;
    with_monitor.r1_monitor = true;
    const HeartbeatModel model = HeartbeatModel::build(flavor, with_monitor);
    mc::Explorer explorer{model.net()};
    const auto result = explorer.reach(model.r1_violation(), limits);
    AHB_ASSERT(result.found || result.complete);
    out.r1 = !result.found;
    out.r1_stats = result.stats;
  }
  {
    BuildOptions plain = options;
    plain.r1_monitor = false;
    const HeartbeatModel model = HeartbeatModel::build(flavor, plain);
    mc::Explorer explorer{model.net()};
    // R2 and R3 are two predicates over the same state space: one search
    // settles both, each with the result a search of its own would give.
    const std::array<mc::Pred, 2> targets{model.r2_violation_any(),
                                          model.r3_violation()};
    const auto results = explorer.reach(targets, limits);
    const auto& r2 = results[0];
    const auto& r3 = results[1];
    AHB_ASSERT(r2.found || r2.complete);
    AHB_ASSERT(r3.found || r3.complete);
    out.r2 = !r2.found;
    out.r2_stats = r2.stats;
    out.r3 = !r3.found;
    out.r3_stats = r3.stats;
  }
  return out;
}

}  // namespace ahb::models
