// Reproduces Table 2 of the analysis: verification verdicts of R1/R2/R3
// for the expanding and dynamic accelerated heartbeat protocols, with
// tmax = 10 and tmin in {1, 4, 5, 9, 10}.
//
// Paper (Table 2):      tmin   1  4  5  9  10
//                       R1     F  F  F  T  T
//                       R2     T  T  F  F  F
//                       R3     T  T  T  T  F
//
// R2 additionally fails whenever 2*tmin >= tmax because of the join-phase
// counterexample (Figure 13): a joiner whose request arrives just after a
// timeout of p[0] only hears back after up to 2*tmax + tmin, which exceeds
// its 3*tmax - tmin deadline exactly when 2*tmin >= tmax.
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

/// Closed-form verdicts for the join-phase protocols — the shared
/// predicate from the protocol kernel (proto/timing.hpp).
ahb::proto::ExpectedVerdicts paper_expectation(Flavor flavor,
                                               const Timing& t) {
  return ahb::proto::expected_verdicts(flavor, t.to_proto());
}

const char* tf(bool b) { return b ? "T" : "F"; }

void run_flavor(Flavor flavor, int participants, const BenchArgs& args) {
  const std::vector<int> tmins{1, 4, 5, 9, 10};
  const int tmax = 10;

  std::printf("%s protocol (tmax=%d, n=%d)\n",
              ahb::models::to_string(flavor), tmax, participants);
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
          ahb::strprintf("table2/%s_n%d_tmin%d",
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
      const auto e = paper_expectation(flavor, Timing{tmins[i], tmax});
      const bool want = row == 0 ? e.r1 : row == 1 ? e.r2 : e.r3;
      paper_row += ahb::strprintf(" %3s", tf(want));
      if (got != want) all_match = false;
    }
    std::printf("  %s\n", paper_row.c_str());
  }
  std::printf("  => %s the paper's Table 2 row-for-row\n",
              all_match ? "MATCHES" : "DIFFERS FROM");
  std::printf("  (%llu states explored, %.2fs)\n\n",
              static_cast<unsigned long long>(total_states), total_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  // Pass a participant count to scale the instance (default 1; the
  // Fig. 13 join-phase counterexample already manifests with a single
  // participant, and larger instances grow the state space steeply).
  const BenchArgs args = ahb::bench::parse_bench_args(argc, argv);
  const int n = args.participants > 0 ? args.participants : 1;
  std::printf("== Table 2: expanding and dynamic heartbeat protocols ==\n\n");
  run_flavor(Flavor::Expanding, n, args);
  run_flavor(Flavor::Dynamic, n, args);
  return 0;
}
