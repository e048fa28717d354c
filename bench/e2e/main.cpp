// bench_e2e: the repository's end-to-end benchmark. One process
// runs one workload on one thread of work and prints every metric it
// measures, one per line, then a JSON summary line.
//
//   bench_e2e --workload W [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--trace-out FILE]
//
// Workloads: verify_full, verify_reduced, scale_steady, chaos. See
// bench/e2e/README.md for what each measures, and bench/e2e/run.py for
// the wrapper that builds this binary and speaks the BENCHMARK.json
// interface.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"

namespace {

using ahb::e2e::Options;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload verify_full|verify_reduced|scale_steady|"
               "chaos [--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--trace-out FILE]\n",
               argv0);
  std::exit(2);
}

/// Accepts both "--flag value" and "--flag=value".
bool take(int argc, char** argv, int& i, const char* flag, std::string& out) {
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(argv[i], flag, len) != 0) return false;
  if (argv[i][len] == '=') {
    out = argv[i] + len + 1;
    return true;
  }
  if (argv[i][len] != '\0' || i + 1 >= argc) return false;
  out = argv[++i];
  return true;
}

bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0';
}

bool parse_seed(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && *end == '\0';
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    double number = 0;
    if (take(argc, argv, i, "--workload", value)) {
      options.workload = value;
    } else if (take(argc, argv, i, "--seed", value)) {
      if (!parse_seed(value, options.seed)) usage(argv[0]);
    } else if (take(argc, argv, i, "--seconds", value)) {
      if (!parse_number(value, number) || number <= 0) usage(argv[0]);
      options.seconds = number;
    } else if (take(argc, argv, i, "--trace-out", value)) {
      options.trace_out = value;
    } else if (take(argc, argv, i, "--trace", value)) {
      if (value != "0" && value != "1") usage(argv[0]);
      options.trace = value == "1";
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      options.smoke = true;
    } else {
      usage(argv[0]);
    }
  }
  if (options.workload.empty()) usage(argv[0]);
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  ahb::e2e::Report report{options.workload};
  std::printf("# bench_e2e workload=%s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? " smoke" : "");

  ahb::e2e::Tracer tracer{false};
  if (options.workload == "verify_full") {
    ahb::e2e::run_verify(options, report, tracer, /*reduced=*/false);
  } else if (options.workload == "verify_reduced") {
    ahb::e2e::run_verify(options, report, tracer, /*reduced=*/true);
  } else if (options.workload == "scale_steady") {
    ahb::e2e::run_scale(options, report, tracer);
  } else if (options.workload == "chaos") {
    ahb::e2e::run_chaos(options, report, tracer);
  } else {
    usage(argv[0]);
  }

  if (!options.trace_out.empty() && !tracer.write(options.trace_out)) {
    report.check(false, "cannot write " + options.trace_out);
  }
  report.print_summary();
  return report.failed() == 0 ? 0 : 1;
}
