// Shared command-line handling for the table/figure reproduction
// binaries: a --threads=N knob for the parallel explorer, a
// --compression=none|collapse knob for the state-store encoding,
// --symmetry=none|participants / --por knobs for the reduced searches,
// and a --json mode that emits one machine-readable line per measured
// configuration,
//   {"bench": "...", "states": S, "transitions": T, "seconds": X.XXX,
//    "threads": N, "store_bytes": B, "compression": "none",
//    "symmetry": "none", "por": false, "reduction_factor": 1.00}
// so sweep scripts can diff runs without scraping the human tables.
#pragma once

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include <sys/resource.h>

#include "mc/explorer.hpp"
#include "models/heartbeat_model.hpp"
#include "sim/link.hpp"
#include "ta/codec.hpp"
#include "util/strings.hpp"

namespace ahb::bench {

struct BenchArgs {
  bool json = false;     ///< emit JSON lines instead of / alongside tables
  unsigned threads = 0;  ///< SearchLimits::threads (0 = hardware concurrency)
  int participants = 0;  ///< first positional argument, when given
  /// SearchLimits::compression; affects store_bytes only, never verdicts.
  ta::Compression compression = ta::Compression::None;
  /// SearchLimits::symmetry; verdict-preserving orbit quotient.
  ta::Symmetry symmetry = ta::Symmetry::None;
  /// SearchLimits::por; verdict-preserving ample-set reduction.
  bool por = false;
  /// SearchLimits::max_states override; 0 keeps the engine default.
  /// Deep sweeps (n >= 3) need more head-room than the 200M default.
  std::uint64_t max_states = 0;

  bool reduced() const {
    return por || symmetry != ta::Symmetry::None;
  }

  /// The SearchLimits every bench passes to the checker, so the knobs
  /// stay uniform across binaries.
  mc::SearchLimits limits() const {
    mc::SearchLimits l;
    l.threads = threads;
    l.compression = compression;
    l.symmetry = symmetry;
    l.por = por;
    if (max_states != 0) l.max_states = max_states;
    return l;
  }
};

/// Binary-specific flag hook: return true when `arg` was consumed.
/// Lets a bench keep its extra flags while sharing the common parser.
using ExtraFlag = std::function<bool(const char* arg)>;

/// Parses --json, --threads=N, --compression=MODE, --symmetry=MODE,
/// --por, --max-states=N and an optional positional participant count.
/// Fails closed: an unknown flag or mode, or a malformed or out-of-range
/// number, prints the problem and the usage line and exits with 2.
/// `extra` (if given) gets a shot at unrecognised flags first, and
/// `extra_usage` is appended to the usage line it prints on failure.
inline BenchArgs parse_bench_args(int argc, char** argv,
                                  const ExtraFlag& extra = {},
                                  const char* extra_usage = "") {
  const auto fail = [&](const char* what, const char* arg) {
    std::fprintf(stderr, "%s: %s\n", what, arg);
    std::fprintf(stderr,
                 "usage: %s [--json] [--threads=N] "
                 "[--compression=none|collapse] "
                 "[--symmetry=none|participants] [--por] "
                 "[--max-states=N] [participants]%s%s\n",
                 argv[0], *extra_usage ? " " : "", extra_usage);
    std::exit(2);
  };
  BenchArgs args;
  std::uint64_t count = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      args.json = true;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      if (!parse_count(arg + 10, 0, mc::kMaxThreads, count)) {
        fail("bad thread count", arg);
      }
      args.threads = static_cast<unsigned>(count);
    } else if (std::strncmp(arg, "--compression=", 14) == 0) {
      const char* mode = arg + 14;
      if (std::strcmp(mode, "none") == 0) {
        args.compression = ta::Compression::None;
      } else if (std::strcmp(mode, "collapse") == 0) {
        args.compression = ta::Compression::Collapse;
      } else {
        fail("unknown --compression mode", arg);
      }
    } else if (std::strncmp(arg, "--symmetry=", 11) == 0) {
      const char* mode = arg + 11;
      if (std::strcmp(mode, "none") == 0) {
        args.symmetry = ta::Symmetry::None;
      } else if (std::strcmp(mode, "participants") == 0) {
        args.symmetry = ta::Symmetry::Participants;
      } else {
        fail("unknown --symmetry mode", arg);
      }
    } else if (std::strcmp(arg, "--por") == 0) {
      args.por = true;
    } else if (std::strncmp(arg, "--max-states=", 13) == 0) {
      if (!parse_count(arg + 13, 0, UINT64_MAX, count)) {
        fail("bad state cap", arg);
      }
      args.max_states = count;
    } else if (extra && extra(arg)) {
      // consumed by the binary's own flag set
    } else if (arg[0] != '-') {
      if (!parse_count(arg, 1, INT_MAX, count)) {
        fail("bad participant count", arg);
      }
      args.participants = static_cast<int>(count);
    } else {
      fail("unknown flag", arg);
    }
  }
  return args;
}

/// Wall time of one models::verify_requirements call: the R1 search
/// plus the shared R2/R3 search, which lasts until the later of its two
/// targets settled (their elapsed times overlap, so they do not add up).
inline double verify_seconds(const models::Verdicts& v) {
  return v.r1_stats.elapsed.count() +
         std::max(v.r2_stats.elapsed.count(), v.r3_stats.elapsed.count());
}

/// Interned-state saving observable within a single reduced run: visited
/// states (interned + fused-through transients) per interned state. The
/// symmetry quotient's gain shows up directly in the smaller `states`
/// figure; cross-mode factors are computed by diffing JSON lines.
inline double reduction_factor(std::uint64_t states, std::uint64_t fused) {
  return states == 0
             ? 1.0
             : static_cast<double>(states + fused) /
                   static_cast<double>(states);
}

/// Peak resident set size of this process so far, in bytes (Linux
/// getrusage reports kilobytes). 0 when unavailable.
inline std::size_t peak_rss_bytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
}

/// One JSON result line on stdout. `bench` names the configuration,
/// e.g. "table1/static_n2_tmin5". `store_bytes` is the state-store
/// footprint of the largest search behind the number (the figure the
/// compression modes exist to shrink); `reduction_factor` is the
/// within-run fusion saving (see reduction_factor() above).
inline void emit_json_line(const std::string& bench, std::uint64_t states,
                           std::uint64_t transitions, double seconds,
                           unsigned threads, std::size_t store_bytes,
                           ta::Compression compression,
                           ta::Symmetry symmetry = ta::Symmetry::None,
                           bool por = false, double reduction = 1.0) {
  std::printf(
      "{\"bench\": \"%s\", \"states\": %llu, \"transitions\": %llu, "
      "\"seconds\": %.3f, \"threads\": %u, \"store_bytes\": %llu, "
      "\"compression\": \"%s\", \"symmetry\": \"%s\", \"por\": %s, "
      "\"reduction_factor\": %.2f}\n",
      bench.c_str(), static_cast<unsigned long long>(states),
      static_cast<unsigned long long>(transitions), seconds, threads,
      static_cast<unsigned long long>(store_bytes),
      ta::to_string(compression), ta::to_string(symmetry),
      por ? "true" : "false", reduction);
}

/// JSON key/value fragment (no braces) with every channel counter, for
/// bench lines whose workload runs over the simulated network — keeps
/// the counter names identical across binaries so sweep scripts can sum
/// them without per-bench schemas.
inline std::string network_stats_fields(const sim::NetworkStats& stats) {
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "\"sent\": %llu, \"delivered\": %llu, \"lost\": %llu, "
      "\"blocked\": %llu, \"duplicated\": %llu, \"reordered\": %llu, "
      "\"out_of_spec_delay\": %llu",
      static_cast<unsigned long long>(stats.sent),
      static_cast<unsigned long long>(stats.delivered),
      static_cast<unsigned long long>(stats.lost),
      static_cast<unsigned long long>(stats.blocked),
      static_cast<unsigned long long>(stats.duplicated),
      static_cast<unsigned long long>(stats.reordered),
      static_cast<unsigned long long>(stats.out_of_spec_delay));
  return buf;
}

}  // namespace ahb::bench
