// Reproduces Table 1 of the analysis: verification verdicts of R1/R2/R3
// for the (revised) binary and static accelerated heartbeat protocols,
// with tmax = 10 and tmin in {1, 4, 5, 9, 10}.
//
// Paper (Table 1):      tmin   1  4  5  9  10
//                       R1     F  F  F  T  T
//                       R2     T  T  T  T  F
//                       R3     T  T  T  T  F
//
// The two-phase variant is additionally reported: the source analysis
// model-checks it but omits it from the table (its inactivation
// condition is unspecified in the original paper; see DESIGN.md).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "models/heartbeat_model.hpp"
#include "util/strings.hpp"

namespace {

using ahb::bench::BenchArgs;
using ahb::models::BuildOptions;
using ahb::models::Flavor;
using ahb::models::Timing;
using ahb::models::Verdicts;

/// Closed-form verdicts implied by the counterexample analysis — the
/// shared predicate from the protocol kernel (proto/timing.hpp).
ahb::proto::ExpectedVerdicts paper_expectation(Flavor flavor,
                                               const Timing& t) {
  return ahb::proto::expected_verdicts(flavor, t.to_proto());
}

const char* tf(bool b) { return b ? "T" : "F"; }

void run_flavor(Flavor flavor, int participants, bool compare,
                const BenchArgs& args) {
  const std::vector<int> tmins{1, 4, 5, 9, 10};
  const int tmax = 10;

  std::printf("%s protocol (tmax=%d%s)\n", ahb::models::to_string(flavor),
              tmax,
              participants > 1
                  ? ahb::strprintf(", n=%d", participants).c_str()
                  : "");
  std::printf("  %-6s", "tmin");
  for (int tmin : tmins) std::printf(" %3d", tmin);
  std::printf("   paper\n");

  const ahb::mc::SearchLimits limits = args.limits();
  std::vector<Verdicts> verdicts;
  std::uint64_t total_states = 0;
  double total_seconds = 0;
  for (int tmin : tmins) {
    BuildOptions options;
    options.timing = Timing{tmin, tmax};
    options.participants = participants;
    verdicts.push_back(
        ahb::models::verify_requirements(flavor, options, limits));
    const auto& v = verdicts.back();
    const std::uint64_t states =
        v.r1_stats.states + v.r2_stats.states + v.r3_stats.states;
    const std::uint64_t transitions = v.r1_stats.transitions +
                                      v.r2_stats.transitions +
                                      v.r3_stats.transitions;
    const double seconds = ahb::bench::verify_seconds(v);
    total_states += states;
    total_seconds += seconds;
    if (args.json) {
      const std::size_t store_bytes =
          std::max({v.r1_stats.store_bytes, v.r2_stats.store_bytes,
                    v.r3_stats.store_bytes});
      const std::uint64_t fused =
          v.r1_stats.fused + v.r2_stats.fused + v.r3_stats.fused;
      ahb::bench::emit_json_line(
          ahb::strprintf("table1/%s_n%d_tmin%d",
                         ahb::models::to_string(flavor), participants,
                         tmin),
          states, transitions, seconds, args.threads, store_bytes,
          args.compression, args.symmetry, args.por,
          ahb::bench::reduction_factor(states, fused));
    }
  }

  bool all_match = true;
  for (int row = 0; row < 3; ++row) {
    std::printf("  %-6s", row == 0 ? "R1" : row == 1 ? "R2" : "R3");
    std::string paper_row;
    for (std::size_t i = 0; i < tmins.size(); ++i) {
      const auto& v = verdicts[i];
      const bool got = row == 0 ? v.r1 : row == 1 ? v.r2 : v.r3;
      std::printf(" %3s", tf(got));
      if (compare) {
        const auto e = paper_expectation(flavor, Timing{tmins[i], tmax});
        const bool want = row == 0 ? e.r1 : row == 1 ? e.r2 : e.r3;
        paper_row += ahb::strprintf(" %3s", tf(want));
        if (got != want) all_match = false;
      }
    }
    if (compare) std::printf("  %s", paper_row.c_str());
    std::printf("\n");
  }
  if (compare) {
    std::printf("  => %s the paper's Table 1 row-for-row\n",
                all_match ? "MATCHES" : "DIFFERS FROM");
  }
  std::printf("  (%llu states explored, %.2fs)\n\n",
              static_cast<unsigned long long>(total_states), total_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ahb::bench::parse_bench_args(argc, argv);
  std::printf("== Table 1: (revised) binary and static heartbeat protocols ==\n\n");
  run_flavor(Flavor::Binary, 1, /*compare=*/true, args);
  run_flavor(Flavor::RevisedBinary, 1, /*compare=*/true, args);
  run_flavor(Flavor::Static, 1, /*compare=*/true, args);
  run_flavor(Flavor::Static, 2, /*compare=*/true, args);
  std::printf("-- two-phase variant (not tabulated in the paper; our adopted\n"
              "   inactivation rule: a miss at t == tmin inactivates) --\n\n");
  run_flavor(Flavor::TwoPhase, 1, /*compare=*/false, args);
  return 0;
}
