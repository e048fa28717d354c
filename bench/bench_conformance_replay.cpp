// Guided-replay throughput: records one nonzero-delay crash-cascade
// trace per variant/timing configuration (plus a three-participant
// static run for search depth) and measures how fast the memoized
// guided walk replays them through the models, at thread counts 1 and 8
// (or the single count given via --threads=N).
//
// The memo set lives in a sharded ConcurrentStateStore, so verdicts are
// thread-invariant; the bench asserts every replay matches before it
// reports a number. JSON lines use the shared schema: "states" is the
// memo-set size, "transitions" the expanded node count, "store_bytes"
// the memo store footprint.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hb/cluster_scale.hpp"
#include "proto/conformance.hpp"
#include "proto/rules.hpp"

namespace {

using namespace ahb;

struct Workload {
  std::string name;
  hb::ClusterConfig config;
  std::vector<hb::ProtocolEvent> events;
};

std::vector<Workload> record_workloads() {
  constexpr hb::Variant kVariants[] = {
      hb::Variant::Binary,   hb::Variant::RevisedBinary, hb::Variant::TwoPhase,
      hb::Variant::Static,   hb::Variant::Expanding,     hb::Variant::Dynamic};
  std::vector<Workload> workloads;
  const auto record = [&](hb::Variant variant, int tmin, int tmax,
                          int participants, const std::string& name) {
    hb::ClusterConfig config;
    config.protocol.variant = variant;
    config.protocol.tmin = tmin;
    config.protocol.tmax = tmax;
    config.participants = participants;
    config.min_delay = 0;
    config.max_delay = -1;  // cluster default: tmin / 2
    config.seed = 7;
    hb::ScaleCluster cluster{config};
    proto::TraceRecorder recorder{cluster};
    cluster.crash_participant_at(1, 2 * tmax + 1);
    cluster.start();
    cluster.run_until(9 * tmax);
    workloads.push_back(Workload{name, config, recorder.events()});
  };
  for (const auto variant : kVariants) {
    for (const auto& [tmin, tmax] : {std::pair{4, 10}, std::pair{10, 10}}) {
      const int participants = proto::variant_is_multi(variant) ? 2 : 1;
      char name[64];
      std::snprintf(name, sizeof name, "%s_tmin%d", to_string(variant), tmin);
      record(variant, tmin, tmax, participants, name);
    }
  }
  record(hb::Variant::Static, 4, 10, 3, "static_n3");
  return workloads;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_bench_args(argc, argv);
  const auto workloads = record_workloads();

  std::vector<unsigned> thread_counts;
  if (args.threads != 0) {
    thread_counts.push_back(args.threads);
  } else {
    thread_counts = {1, 8};
  }

  if (!args.json) {
    std::printf("%-22s %8s %10s %12s %12s %8s\n", "trace", "events",
                "threads", "expanded", "memo", "ms");
  }
  for (const unsigned threads : thread_counts) {
    std::uint64_t total_expanded = 0;
    std::uint64_t total_memo = 0;
    std::size_t total_bytes = 0;
    double total_seconds = 0.0;
    for (const auto& w : workloads) {
      mc::GuidedLimits limits;
      limits.threads = threads;
      const auto begin = std::chrono::steady_clock::now();
      const auto r = proto::replay_cluster_trace(w.config, w.events,
                                                 models::BuildOptions::Rejoin::None,
                                                 limits);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        begin)
              .count();
      if (!r.ok) {
        std::fprintf(stderr, "replay of %s failed (%zu/%zu): %s\n",
                     w.name.c_str(), r.matched, r.events,
                     r.diagnostic.c_str());
        return 1;
      }
      total_expanded += r.expanded;
      total_memo += r.memo_states;
      total_bytes += r.memo_bytes;
      total_seconds += seconds;
      if (args.json) {
        bench::emit_json_line("conformance_replay/" + w.name, r.memo_states,
                              r.expanded, seconds, threads, r.memo_bytes,
                              ta::Compression::Collapse);
      } else {
        std::printf("%-22s %8zu %10u %12llu %12zu %8.2f\n", w.name.c_str(),
                    w.events.size(), threads,
                    static_cast<unsigned long long>(r.expanded),
                    r.memo_states, seconds * 1e3);
      }
    }
    if (args.json) {
      bench::emit_json_line("conformance_replay/total", total_memo,
                            total_expanded, total_seconds, threads,
                            total_bytes, ta::Compression::Collapse);
    } else {
      std::printf("%-22s %8s %10u %12llu %12llu %8.2f\n", "total", "-",
                  threads, static_cast<unsigned long long>(total_expanded),
                  static_cast<unsigned long long>(total_memo),
                  total_seconds * 1e3);
    }
  }
  return 0;
}
