// Reproduces Figures 11 and 12 of the analysis: the simultaneous-event
// races that violate R2 and R3 in the binary/static protocols when
// tmin == tmax.
//
//  - Fig. 11 (R2): p[0]'s heartbeat is delivered to p[1] exactly when
//    p[1]'s 3*tmax - tmin timeout expires (= 2*tmax when tmin == tmax);
//    if the timeout is processed first, p[1] inactivates although
//    nothing was lost and p[0] is alive.
//  - Fig. 12 (R3): symmetrically, p[1]'s reply reaches p[0] exactly at
//    p[0]'s own timeout; processed second, the round counts as a miss
//    and p[0] inactivates although p[1] is alive.
#include <array>
#include <cstdio>

#include "bench_util.hpp"
#include "mc/explorer.hpp"
#include "models/heartbeat_model.hpp"
#include "trace/trace.hpp"

namespace {

using namespace ahb;

void show(bool r2, int tmin, int tmax, bool json) {
  models::BuildOptions options;
  options.timing = {tmin, tmax};
  const auto model =
      models::HeartbeatModel::build(models::Flavor::Binary, options);
  mc::Explorer explorer{model.net()};
  const auto result = explorer.reach(r2 ? model.r2_violation_any()
                                        : model.r3_violation());

  std::printf("--- %s: binary protocol, tmin=%d tmax=%d ---\n",
              r2 ? "Fig. 11 (R2 violation)" : "Fig. 12 (R3 violation)", tmin,
              tmax);
  if (json) {
    std::printf("{\"bench\": \"fig11_12/%s_race\", \"found\": %s, "
                "\"steps\": %zu, \"states\": %llu}\n",
                r2 ? "r2" : "r3", result.found ? "true" : "false",
                result.found ? result.trace.size() - 1 : 0,
                static_cast<unsigned long long>(result.stats.states));
  }
  if (!result.found) {
    std::printf("NO counterexample found (unexpected!)\n\n");
    return;
  }
  std::printf(
      "%s inactivated non-voluntarily with no loss and the peer alive.\n"
      "Shortest witness (%zu steps, %llu states explored):\n",
      r2 ? "p[1]" : "p[0]", result.trace.size() - 1,
      static_cast<unsigned long long>(result.stats.states));
  std::printf("%s\n",
              trace::render_timeline_filtered(
                  model.net(), result.trace,
                  {"beat", "reply", "timeout", "crash", "inactivate"})
                  .c_str());
}

void show_fixed_pass(int tmin, int tmax, bool json) {
  models::BuildOptions options;
  options.timing = {tmin, tmax};
  options.fixed = true;
  const auto model =
      models::HeartbeatModel::build(models::Flavor::Binary, options);
  mc::Explorer explorer{model.net()};
  const std::array<mc::Pred, 2> targets{model.r2_violation_any(),
                                        model.r3_violation()};
  const auto results = explorer.reach(targets);
  const auto& r2 = results[0];
  const auto& r3 = results[1];
  std::printf(
      "--- Section 6 fix (receive priority), tmin=%d tmax=%d ---\n"
      "R2 violation reachable: %s   R3 violation reachable: %s\n"
      "(paper: both races disappear once receives precede timeouts)\n",
      tmin, tmax, r2.found ? "yes (unexpected!)" : "no",
      r3.found ? "yes (unexpected!)" : "no");
  if (json) {
    std::printf("{\"bench\": \"fig11_12/fixed\", \"r2_found\": %s, "
                "\"r3_found\": %s}\n",
                r2.found ? "true" : "false", r3.found ? "true" : "false");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  std::printf("== Figures 11-12: R2/R3 races at tmin == tmax ==\n\n");
  show(/*r2=*/true, 10, 10, args.json);
  show(/*r2=*/false, 10, 10, args.json);
  show_fixed_pass(10, 10, args.json);
  return 0;
}
