// Suspicion monitoring: using the accelerated heartbeat's halving ladder
// as a graded failure detector instead of the protocol's all-or-nothing
// deactivation.
//
// The coordinator tracks per-member waiting times tm[i]; every halving
// below tmax means one consecutive missed round. The FailureDetector
// facade turns that into suspect/trust queries — here we watch a member
// go silent, become suspected after two missed rounds, and get trusted
// again when its beats resume (an eventually-perfect-detector workflow).
//
// Build & run:  ./build/examples/suspicion_monitor
#include <cstdio>

#include "hb/failure_detector.hpp"

int main() {
  using namespace ahb::hb;

  Config config;
  config.variant = Variant::Static;
  config.tmin = 1;
  config.tmax = 16;

  FailureDetector detector{config, /*participants=*/3,
                           /*suspect_after_misses=*/2};
  detector.start(0);

  // Drive rounds by hand: member 2 goes silent for rounds 4-6 (say, a
  // long GC pause) and then recovers.
  Time now = 0;
  for (int round = 1; round <= 10 && !detector.down(); ++round) {
    now = detector.next_event_time();
    detector.on_elapsed(now);
    const bool member2_silent = round >= 4 && round <= 6;
    for (const int id : {1, 2, 3}) {
      if (id == 2 && member2_silent) continue;
      detector.on_message(now + 1, Message{id, true});
    }

    std::printf("[t=%4lld] round %2d  misses:", static_cast<long long>(now),
                round);
    for (const int id : {1, 2, 3}) {
      std::printf(" p%d=%d", id, detector.missed_rounds(id));
    }
    const auto suspected = detector.suspected();
    std::printf("  suspected: {");
    for (std::size_t i = 0; i < suspected.size(); ++i) {
      std::printf("%s%d", i ? ", " : "", suspected[i]);
    }
    std::printf("}%s\n", member2_silent ? "   (p2 silent)" : "");
  }

  std::printf(
      "\np2 was suspected after two consecutive silent rounds and trusted\n"
      "again once its beats resumed — without ever tripping the protocol's\n"
      "own all-or-nothing deactivation (coordinator is %s).\n",
      to_string(detector.coordinator().status()));
  return 0;
}
