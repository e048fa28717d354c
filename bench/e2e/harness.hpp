// Shared plumbing of the end-to-end benchmark: options, the metric and
// correctness report, in-memory span tracing, and the measurement
// skeleton every workload runs (median set-up time, warm-up, timed job
// loop, or an untraced/traced job pair when tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rv/pltl/eval.hpp"

namespace ahb::e2e {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;  ///< measurement window of the job loop
  bool trace = false;   ///< per-layer run instead of the end-to-end one
  bool smoke = false;   ///< toy input sizes, one job, one set-up
  std::string trace_out;  ///< JSON-lines span dump (trace mode, optional)
};

double seconds_since(Clock::time_point start);

/// Quantile by linear interpolation between order statistics (the
/// "inclusive" method); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Metrics and correctness checks of one run. Metrics are printed as
/// they are recorded, one per line, so a human reads the run as it
/// goes; print_summary() writes the closing JSON object that
/// bench/e2e/run.py turns into the benchmark's result line.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// An end-to-end metric (the user-visible numbers BENCHMARK.json
  /// bounds).
  void e2e(const std::string& name, double value, const std::string& unit);
  /// A per-layer metric, with the end-to-end metric it should move.
  void layer(const std::string& name, double value, const std::string& unit,
             const std::string& target);
  /// Counts one correctness check; a failed one is printed with `what`.
  bool check(bool ok, const std::string& what);
  /// Informational line (no metric, no check).
  void note(const std::string& text) const;

  std::uint64_t failed() const { return failed_; }
  void print_summary() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::string workload_;
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder. A span is (name, start, end, parent, run);
/// spans nest through the RAII Scope, so a span's parent is the span
/// open when it began. Disabled tracers record nothing and cost one
/// branch per scope, which lets a job be written once and run both
/// untraced and traced.
class Tracer {
 public:
  struct Span {
    const char* name;  ///< string literal naming the layer call
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  ///< index into spans(), -1 for a root span
    int run;     ///< job (or run) the span belongs to
  };

  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_run(int run) { run_ = run; }

  [[nodiscard]] Scope span(const char* name);

  /// Self time of every span named `name` (its duration minus the part
  /// covered by its children), in seconds, in recording order.
  std::vector<double> self_seconds(std::string_view name) const;
  double self_total(std::string_view name) const;
  /// Full durations of the spans named `name`, in seconds.
  std::vector<double> durations(std::string_view name) const;
  /// Writes one JSON object per span: {"name", "start_ns", "end_ns",
  /// "parent", "run"}; times are relative to the tracer's creation.
  bool write(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  int run_ = -1;
  int open_ = -1;  ///< innermost open span
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Wall times of the parts of a job. Every job runs the same parts, each
/// the same number of times and on the same input, so a part's fastest
/// repetition is its cost without interference from other processes;
/// measure() reports job_s as the sum of those fastest times. Parts are
/// kept short (at most a few hundred milliseconds) and jobs to about
/// half a second, so each part repeats dozens of times in a run and
/// some repetition falls in a quiet moment of the machine.
class JobParts {
 public:
  template <typename Body>
  void part(std::size_t index, Body&& body) {
    const auto start = Clock::now();
    body();
    const double seconds = seconds_since(start);
    if (samples_.size() <= index) samples_.resize(index + 1);
    samples_[index].push_back(seconds);
  }

  /// Sum over parts of (fastest time x times run per job).
  double job_seconds(int jobs) const;
  /// Fastest time of each part, in part order.
  std::vector<double> fastest() const;
  void clear() { samples_.clear(); }

 private:
  std::vector<std::vector<double>> samples_;
};

using Job = std::function<void(int job, JobParts& parts)>;

/// The measurement skeleton. `setup` is sampled before the warm-up and
/// again before every job, and the median sample is `setup_s`;
/// `job(i, parts)` runs job i, with job 0 the warm-up. Untraced, jobs
/// repeat while the next one is expected to end inside options.seconds,
/// set-ups included (at least three), then `job_s` and `peak_rss_mb`
/// (the high-water mark after the third job) are reported. Traced, one
/// set-up, the warm-up, one untraced and one traced job run, and
/// `bench.trace_overhead_pct` compares the last two.
void measure(const Options& options, Report& report, Tracer& tracer,
             const std::function<void()>& setup, const Job& job);

/// Stable seed for input `salt` of a run with benchmark seed `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// The shipped runtime formulas (r1, r2, r3, s2) compiled against
/// `params`. A formula that fails to compile is left out, so callers
/// check the count.
std::vector<std::unique_ptr<rv::pltl::FormulaMonitor>> shipped_monitors(
    const rv::pltl::BindParams& params);

// Workload entry points. Each runs measure() and, when tracing, its
// per-layer probes; `tracer` starts disabled.
void run_verify(const Options& options, Report& report, Tracer& tracer,
                bool reduced);
void run_scale(const Options& options, Report& report, Tracer& tracer);
void run_chaos(const Options& options, Report& report, Tracer& tracer);

}  // namespace ahb::e2e
