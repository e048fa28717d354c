// Ablation of the Section 6 corrections: which of the two fixes —
// (a) receive priority over simultaneous timeouts (§6.1) and
// (b) corrected time bounds (§6.2) — removes which counterexample?
//
// The analysis applies both at once; this harness applies them
// independently at the parameter points where each requirement fails:
//
//   * R1 (binary, 2*tmin <= tmax): caused by an understated bound; only
//     the bound correction can remove it — receive priority is useless.
//   * R2/R3 (binary, tmin == tmax): pure simultaneity races; receive
//     priority alone removes them, the bound correction alone does not.
//   * R2 join phase (expanding): at 2*tmin == tmax the deadline
//     coincides with the worst delivery (a race: priority suffices); for
//     2*tmin > tmax the deadline is genuinely too short (bounds needed)
//     and the boundary case still races (priority needed as well).
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "models/heartbeat_model.hpp"
#include "util/strings.hpp"

namespace {

using namespace ahb;
using bench::BenchArgs;
using models::BuildOptions;
using models::Flavor;

const char* tf(bool b) { return b ? "T" : "F"; }

void run_point(Flavor flavor, int tmin, int tmax, const char* focus,
               const BenchArgs& args) {
  std::printf("--- %s, tmin=%d tmax=%d (focus: %s) ---\n",
              models::to_string(flavor), tmin, tmax, focus);
  std::printf("  %-28s %4s %4s %4s\n", "fix combination", "R1", "R2", "R3");
  struct Combo {
    const char* name;
    bool priority;
    bool bounds;
  };
  const Combo combos[] = {
      {"none (as published)", false, false},
      {"receive priority only", true, false},
      {"corrected bounds only", false, true},
      {"both (Section 6)", true, true},
  };
  const mc::SearchLimits limits = args.limits();
  for (const auto& combo : combos) {
    BuildOptions options;
    options.timing = {tmin, tmax};
    options.receive_priority = combo.priority;
    options.corrected_bounds = combo.bounds;
    const auto v = models::verify_requirements(flavor, options, limits);
    std::printf("  %-28s %4s %4s %4s\n", combo.name, tf(v.r1), tf(v.r2),
                tf(v.r3));
    if (args.json) {
      bench::emit_json_line(
          strprintf("ablation/%s_tmin%d_prio%d_bounds%d",
                    models::to_string(flavor), tmin, combo.priority ? 1 : 0,
                    combo.bounds ? 1 : 0),
          v.r1_stats.states + v.r2_stats.states + v.r3_stats.states,
          v.r1_stats.transitions + v.r2_stats.transitions +
              v.r3_stats.transitions,
          bench::verify_seconds(v),
          args.threads,
          std::max({v.r1_stats.store_bytes, v.r2_stats.store_bytes,
                    v.r3_stats.store_bytes}),
          args.compression, args.symmetry, args.por,
          bench::reduction_factor(
              v.r1_stats.states + v.r2_stats.states + v.r3_stats.states,
              v.r1_stats.fused + v.r2_stats.fused + v.r3_stats.fused));
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = bench::parse_bench_args(argc, argv);
  std::printf("== Ablation: which Section 6 fix removes which failure ==\n\n");
  run_point(Flavor::Binary, 1, 10, "R1, understated bound", args);
  run_point(Flavor::Binary, 10, 10, "R2/R3 simultaneity races", args);
  run_point(Flavor::Expanding, 5, 10, "join-phase race (2*tmin == tmax)",
            args);
  run_point(Flavor::Expanding, 9, 10, "join-phase bound (2*tmin > tmax)",
            args);
  std::printf(
      "Reading: R1 flips only with the bound correction (it is a statement\n"
      "about p[0]'s worst-case inactivation time, which no scheduling rule\n"
      "can shorten); every R2/R3 failure flips with receive priority. Note\n"
      "that in this *global* formulation of Section 6.1 (any pending\n"
      "delivery defers any timeout), priority alone even covers the\n"
      "join-phase bound case at 2*tmin > tmax: the joiner's deadline\n"
      "expires exactly while the addressed beat is in flight, so deferring\n"
      "to it saves the joiner, and every remaining violating run needs a\n"
      "loss, which R2 excludes. The source analysis reports priority as\n"
      "necessary-but-not-sufficient for its own (more local) formulation;\n"
      "the bound correction stays necessary for R1 either way.\n");
  return 0;
}
