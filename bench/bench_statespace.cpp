// Model-checker performance (google-benchmark): state-space sizes and
// exploration throughput for the protocol models — the cost of each
// verification the tables report, plus micro-benchmarks of the
// explorer's building blocks.
//
// With --json the binary bypasses google-benchmark and runs the static
// protocol's Table-1 parameter sweep (tmax=10, tmin in {1,4,5,9,10}),
// emitting one JSON line per point plus a total line — the harness the
// compression and reduction acceptance numbers are read from:
//   bench_statespace --json [--threads=N]
//                    [--compression=none|collapse]
//                    [--symmetry=none|participants] [--por] [participants]
// The n=2 sweep visits exactly 33,809,598 states in every compression
// mode at --threads=1 with reductions off; only store_bytes moves.
// (Parallel runs agree with each other but finish the BFS level at the
// early-exit points, interning a few more states — see DESIGN.md
// "Parallel exploration".) With --symmetry=participants/--por the state
// counts shrink; the verdicts are then asserted against the proto
// kernel's closed forms, so a reduction soundness regression fails the
// bench instead of silently reporting a smaller sweep. Every line also
// carries peak_rss_bytes so the BENCH trajectory tracks memory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>

#include "bench_util.hpp"
#include "mc/explorer.hpp"
#include "mc/concurrent_store.hpp"
#include "mc/store.hpp"
#include "models/heartbeat_model.hpp"
#include "proto/timing.hpp"
#include "util/contracts.hpp"
#include "util/strings.hpp"

namespace {

using namespace ahb;

void BM_ExploreBinary(benchmark::State& state) {
  const int tmin = static_cast<int>(state.range(0));
  models::BuildOptions options;
  options.timing = {tmin, 10};
  const auto model =
      models::HeartbeatModel::build(models::Flavor::Binary, options);
  std::uint64_t states = 0;
  for (auto _ : state) {
    mc::Explorer explorer{model.net()};
    const auto stats = explorer.explore_all();
    states = stats.states;
    benchmark::DoNotOptimize(stats.transitions);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExploreBinary)->Arg(1)->Arg(5)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_ExploreFlavor(benchmark::State& state) {
  const auto flavor = static_cast<models::Flavor>(state.range(0));
  models::BuildOptions options;
  options.timing = {2, 6};
  options.participants = 1;
  const auto model = models::HeartbeatModel::build(flavor, options);
  std::uint64_t states = 0;
  for (auto _ : state) {
    mc::Explorer explorer{model.net()};
    states = explorer.explore_all().states;
  }
  state.counters["states"] = static_cast<double>(states);
  state.SetLabel(models::to_string(flavor));
}
BENCHMARK(BM_ExploreFlavor)
    ->Arg(static_cast<int>(models::Flavor::Binary))
    ->Arg(static_cast<int>(models::Flavor::TwoPhase))
    ->Arg(static_cast<int>(models::Flavor::Static))
    ->Arg(static_cast<int>(models::Flavor::Expanding))
    ->Arg(static_cast<int>(models::Flavor::Dynamic))
    ->Unit(benchmark::kMillisecond);

void BM_ExploreStaticParticipants(benchmark::State& state) {
  models::BuildOptions options;
  options.timing = {2, 4};
  options.participants = static_cast<int>(state.range(0));
  const auto model =
      models::HeartbeatModel::build(models::Flavor::Static, options);
  std::uint64_t states = 0;
  for (auto _ : state) {
    mc::Explorer explorer{model.net()};
    states = explorer.explore_all().states;
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_ExploreStaticParticipants)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

void BM_VerifyAllRequirementsBinary(benchmark::State& state) {
  models::BuildOptions options;
  options.timing = {static_cast<int>(state.range(0)), 10};
  for (auto _ : state) {
    const auto verdicts =
        models::verify_requirements(models::Flavor::Binary, options);
    benchmark::DoNotOptimize(verdicts.r1);
  }
}
BENCHMARK(BM_VerifyAllRequirementsBinary)
    ->Arg(1)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

void BM_SuccessorGeneration(benchmark::State& state) {
  models::BuildOptions options;
  options.timing = {2, 10};
  const auto model =
      models::HeartbeatModel::build(models::Flavor::Binary, options);
  const auto init = model.net().initial_state();
  ta::SuccessorScratch scratch;
  for (auto _ : state) {
    model.net().for_each_successor(
        init, scratch, [](const ta::SuccessorView& v) {
          benchmark::DoNotOptimize(v.target.data());
        });
  }
}
BENCHMARK(BM_SuccessorGeneration);

/// The first 100,000 reachable states of static n=2 (tmin 4, tmax 10)
/// in BFS order: real inputs for the store encodings, which pack states
/// against the model's declared ranges.
const std::vector<ta::State>& intern_sample(const ta::Network& net) {
  static const std::vector<ta::State> states = [&] {
    constexpr std::size_t kCount = 100000;
    std::vector<ta::State> out;
    mc::StateStore seen{net.slot_count()};
    seen.intern(net.initial_state());
    out.push_back(net.initial_state());
    ta::SuccessorScratch scratch;
    for (std::size_t next = 0; next < out.size() && out.size() < kCount;
         ++next) {
      const ta::State s = out[next];
      net.for_each_successor(s, scratch, [&](const ta::SuccessorView& v) {
        if (out.size() == kCount) return false;
        if (seen.intern(v.target).second) out.emplace_back(v.target);
        return true;
      });
    }
    return out;
  }();
  return states;
}

/// Interns the sample into a fresh store: range(0) picks the encoding
/// (0 none, 1 collapse), range(1) the store (0 StateStore, 1 the sharded
/// ConcurrentStateStore). Both stores run the one intern core, so the
/// difference is the shard choice and lock of the sharded wrapper.
template <typename Store>
void intern_all(benchmark::State& state, const ta::Network& net,
                ta::Compression mode) {
  const auto& states = intern_sample(net);
  for (auto _ : state) {
    Store store{net.codec(), mode};
    for (const auto& s : states) benchmark::DoNotOptimize(store.intern(s));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(states.size()));
}

void BM_StoreIntern(benchmark::State& state) {
  static const auto model = [] {
    models::BuildOptions options;
    options.timing = {4, 10};
    options.participants = 2;
    return models::HeartbeatModel::build(models::Flavor::Static, options);
  }();
  const auto mode = state.range(0) == 0 ? ta::Compression::None
                                        : ta::Compression::Collapse;
  if (state.range(1) == 0) {
    intern_all<mc::StateStore>(state, model.net(), mode);
  } else {
    intern_all<mc::ConcurrentStateStore>(state, model.net(), mode);
  }
  state.SetLabel(std::string(mode == ta::Compression::None ? "none"
                                                           : "collapse") +
                 (state.range(1) == 0 ? "/StateStore"
                                      : "/ConcurrentStateStore"));
}
BENCHMARK(BM_StoreIntern)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// The --json sweep: verifies R1-R3 of the static protocol at every
/// Table-1 timing point and reports states/bytes per point and in total.
int run_json_sweep(const ahb::bench::BenchArgs& args) {
  const int participants = args.participants > 0 ? args.participants : 2;
  const int tmins[] = {1, 4, 5, 9, 10};
  const int tmax = 10;

  const mc::SearchLimits limits = args.limits();

  std::uint64_t total_states = 0;
  std::uint64_t total_transitions = 0;
  std::uint64_t total_fused = 0;
  double total_seconds = 0;
  std::size_t peak_store_bytes = 0;
  std::string verdict_list;
  for (const int tmin : tmins) {
    models::BuildOptions options;
    options.timing = {tmin, tmax};
    options.participants = participants;
    const auto v =
        models::verify_requirements(models::Flavor::Static, options, limits);
    if (args.reduced()) {
      // Reduced sweeps must reproduce the paper's closed-form verdicts;
      // a mismatch means a reduction soundness bug, not a measurement.
      const auto expected = proto::expected_verdicts(
          models::Flavor::Static, proto::Timing{tmin, tmax});
      AHB_ASSERT(v.r1 == expected.r1 && v.r2 == expected.r2 &&
                 v.r3 == expected.r3);
    }
    const std::uint64_t states =
        v.r1_stats.states + v.r2_stats.states + v.r3_stats.states;
    const std::uint64_t transitions = v.r1_stats.transitions +
                                      v.r2_stats.transitions +
                                      v.r3_stats.transitions;
    const std::uint64_t fused =
        v.r1_stats.fused + v.r2_stats.fused + v.r3_stats.fused;
    const double seconds = bench::verify_seconds(v);
    const std::size_t store_bytes =
        std::max({v.r1_stats.store_bytes, v.r2_stats.store_bytes,
                  v.r3_stats.store_bytes});
    total_states += states;
    total_transitions += transitions;
    total_fused += fused;
    total_seconds += seconds;
    peak_store_bytes = std::max(peak_store_bytes, store_bytes);
    const std::string verdicts =
        strprintf("%s%s%s", v.r1 ? "T" : "F", v.r2 ? "T" : "F",
                  v.r3 ? "T" : "F");
    if (!verdict_list.empty()) verdict_list += " ";
    verdict_list += strprintf("tmin%d:%s", tmin, verdicts.c_str());
    std::printf(
        "{\"bench\": \"statespace/static_n%d_tmin%d\", \"states\": %llu, "
        "\"transitions\": %llu, \"seconds\": %.3f, \"threads\": %u, "
        "\"store_bytes\": %llu, \"peak_rss_bytes\": %llu, "
        "\"compression\": \"%s\", \"symmetry\": \"%s\", \"por\": %s, "
        "\"reduction_factor\": %.2f, \"verdicts\": \"%s\"}\n",
        participants, tmin, static_cast<unsigned long long>(states),
        static_cast<unsigned long long>(transitions), seconds, args.threads,
        static_cast<unsigned long long>(store_bytes),
        static_cast<unsigned long long>(ahb::bench::peak_rss_bytes()),
        ta::to_string(args.compression), ta::to_string(args.symmetry),
        args.por ? "true" : "false",
        ahb::bench::reduction_factor(states, fused), verdicts.c_str());
  }
  // store_bytes of the total line is the sweep's peak footprint — the
  // number that must shrink >= 3x under collapse vs none.
  std::printf(
      "{\"bench\": \"statespace/static_n%d_total\", \"states\": %llu, "
      "\"transitions\": %llu, \"seconds\": %.3f, \"threads\": %u, "
      "\"store_bytes\": %llu, \"peak_rss_bytes\": %llu, "
      "\"compression\": \"%s\", \"symmetry\": \"%s\", \"por\": %s, "
      "\"reduction_factor\": %.2f, \"verdicts\": \"%s\"}\n",
      participants, static_cast<unsigned long long>(total_states),
      static_cast<unsigned long long>(total_transitions), total_seconds,
      args.threads, static_cast<unsigned long long>(peak_store_bytes),
      static_cast<unsigned long long>(ahb::bench::peak_rss_bytes()),
      ta::to_string(args.compression), ta::to_string(args.symmetry),
      args.por ? "true" : "false",
      ahb::bench::reduction_factor(total_states, total_fused),
      verdict_list.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return run_json_sweep(ahb::bench::parse_bench_args(argc, argv));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
