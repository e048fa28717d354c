// hbmc — command-line model checker for the accelerated heartbeat
// protocols. Select a protocol variant and parameters, pick a check, and
// get a verdict with a minimal counterexample trace where applicable.
//
// Usage:
//   hbmc --flavor binary --tmin 10 --tmax 10 --check r2 --trace
//   hbmc --flavor expanding --tmin 5 --tmax 10 --check all
//   hbmc --flavor dynamic --fixed --check all
//   hbmc --flavor binary --tmin 2 --tmax 4 --check deadlock
//   hbmc --flavor dynamic --rejoin naive --fixed --check r2 --trace
//
// Flags:
//   --flavor  binary|revised|two-phase|static|expanding|dynamic
//   --tmin N  --tmax N  --participants N
//   --fixed               both Section 6 corrections
//   --receive-priority    Section 6.1 only
//   --corrected-bounds    Section 6.2 only
//   --rejoin naive|graceful   (dynamic)
//   --check r1|r2|r3|all|deadlock
//   --trace               print the counterexample timeline
//   --full-trace          print every state along the counterexample
//
// Malformed input fails closed: a non-numeric or out-of-range number, an
// unknown flag, flavor or check prints the usage line and exits with 2.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mc/explorer.hpp"
#include "models/heartbeat_model.hpp"
#include "trace/trace.hpp"
#include "util/strings.hpp"

namespace {

using namespace ahb;

struct CliOptions {
  models::Flavor flavor = models::Flavor::Binary;
  models::BuildOptions build;
  std::string check = "all";
  bool trace = false;
  bool full_trace = false;
};

// Every clock cap is at most 3*tmax + 1 and must fit a 16-bit slot.
constexpr std::uint64_t kMaxTime = 10000;
// Exhaustive search stops being feasible past n = 3; the cap only keeps a
// typo from building a network that exhausts memory.
constexpr std::uint64_t kMaxParticipants = 64;

/// Parses a whole decimal flag value in [lo, hi] into `out`.
bool parse_int(const char* text, std::uint64_t lo, std::uint64_t hi,
               int& out) {
  std::uint64_t value = 0;
  if (text == nullptr || !parse_count(text, lo, hi, value)) return false;
  out = static_cast<int>(value);
  return true;
}

bool known_check(const std::string& check) {
  return check == "r1" || check == "r2" || check == "r3" || check == "all" ||
         check == "deadlock";
}

std::optional<models::Flavor> parse_flavor(const std::string& name) {
  using models::Flavor;
  if (name == "binary") return Flavor::Binary;
  if (name == "revised") return Flavor::RevisedBinary;
  if (name == "two-phase") return Flavor::TwoPhase;
  if (name == "static") return Flavor::Static;
  if (name == "expanding") return Flavor::Expanding;
  if (name == "dynamic") return Flavor::Dynamic;
  return std::nullopt;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --flavor F --tmin N --tmax N [--participants N]\n"
               "          [--fixed | --receive-priority | --corrected-bounds]\n"
               "          [--rejoin naive|graceful]\n"
               "          --check r1|r2|r3|all|deadlock [--trace|--full-trace]\n",
               argv0);
  return 2;
}

/// One requirement of a check run: its name and its violation predicate.
struct Check {
  const char* name;
  mc::Pred violation;
};

/// Runs the reachability checks on one model in one search, printing
/// verdicts and optional traces. Returns true iff every requirement
/// HOLDS.
bool run_checks(const models::HeartbeatModel& model,
                std::span<const Check> checks, const CliOptions& cli) {
  bool all_hold = true;
  std::vector<mc::Pred> targets;
  for (const Check& check : checks) targets.push_back(check.violation);
  mc::Explorer explorer{model.net()};
  const auto results = explorer.reach(targets);
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const auto& result = results[i];
    std::printf("%s: %s  (%llu states, %.3fs)\n", checks[i].name,
                result.found      ? "VIOLATED"
                : result.complete ? "holds (exhaustive)"
                                  : "inconclusive (hit limits)",
                static_cast<unsigned long long>(result.stats.states),
                result.stats.elapsed.count());
    if (result.found && (cli.trace || cli.full_trace)) {
      std::printf("%s", cli.full_trace
                            ? trace::render_full(model.net(), result.trace)
                                  .c_str()
                            : trace::render_timeline(model.net(), result.trace)
                                  .c_str());
    }
    all_hold &= !result.found;
  }
  return all_hold;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  cli.build.timing = {1, 4};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--flavor") {
      const char* value = next();
      const auto flavor = value ? parse_flavor(value) : std::nullopt;
      if (!flavor) return usage(argv[0]);
      cli.flavor = *flavor;
    } else if (arg == "--tmin") {
      if (!parse_int(next(), 1, kMaxTime, cli.build.timing.tmin)) {
        return usage(argv[0]);
      }
    } else if (arg == "--tmax") {
      if (!parse_int(next(), 1, kMaxTime, cli.build.timing.tmax)) {
        return usage(argv[0]);
      }
    } else if (arg == "--participants") {
      if (!parse_int(next(), 1, kMaxParticipants, cli.build.participants)) {
        return usage(argv[0]);
      }
    } else if (arg == "--fixed") {
      cli.build.fixed = true;
    } else if (arg == "--receive-priority") {
      cli.build.receive_priority = true;
    } else if (arg == "--corrected-bounds") {
      cli.build.corrected_bounds = true;
    } else if (arg == "--rejoin") {
      const char* value = next();
      if (!value) return usage(argv[0]);
      if (std::strcmp(value, "naive") == 0) {
        cli.build.rejoin = models::BuildOptions::Rejoin::Naive;
      } else if (std::strcmp(value, "graceful") == 0) {
        cli.build.rejoin = models::BuildOptions::Rejoin::Graceful;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--check") {
      const char* value = next();
      if (!value || !known_check(value)) return usage(argv[0]);
      cli.check = value;
    } else if (arg == "--trace") {
      cli.trace = true;
    } else if (arg == "--full-trace") {
      cli.full_trace = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (!cli.build.timing.valid()) {
    std::fprintf(stderr, "invalid timing: need 0 < tmin <= tmax\n");
    return usage(argv[0]);
  }

  std::printf("model: %s protocol, tmin=%d tmax=%d, n=%d%s%s%s\n",
              models::to_string(cli.flavor), cli.build.timing.tmin,
              cli.build.timing.tmax, cli.build.participants,
              cli.build.use_receive_priority() ? ", receive-priority" : "",
              cli.build.use_corrected_bounds() ? ", corrected-bounds" : "",
              cli.build.rejoin == models::BuildOptions::Rejoin::None
                  ? ""
                  : ", rejoin");

  bool all_hold = true;
  if (cli.check == "deadlock") {
    const auto model = models::HeartbeatModel::build(cli.flavor, cli.build);
    mc::Explorer explorer{model.net()};
    const auto result = explorer.find_deadlock();
    std::printf("deadlock: %s (%llu states)\n",
                result.found ? "REACHABLE" : "none (exhaustive)",
                static_cast<unsigned long long>(result.stats.states));
    if (result.found && (cli.trace || cli.full_trace)) {
      std::printf("%s",
                  trace::render_timeline(model.net(), result.trace).c_str());
    }
    all_hold = !result.found;
  } else if (cli.check == "r1" || cli.check == "all") {
    auto options = cli.build;
    options.r1_monitor = true;
    const auto model = models::HeartbeatModel::build(cli.flavor, options);
    const Check r1{"R1", model.r1_violation()};
    all_hold &= run_checks(model, std::span{&r1, 1}, cli);
  }
  if (cli.check == "r2" || cli.check == "r3" || cli.check == "all") {
    // R2 and R3 share the model without watchdogs, and one search.
    const auto model = models::HeartbeatModel::build(cli.flavor, cli.build);
    std::vector<Check> checks;
    if (cli.check != "r3") checks.push_back({"R2", model.r2_violation_any()});
    if (cli.check != "r2") checks.push_back({"R3", model.r3_violation()});
    all_hold &= run_checks(model, checks, cli);
  }
  return all_hold ? 0 : 1;
}
