#include "harness.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <sys/resource.h>

#include "rv/pltl/formulas.hpp"

namespace ahb::e2e {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this program's own address space.
  // getrusage's ru_maxrss is not: Linux carries the peak of the process
  // image replaced by exec into it, so a binary started from a Python
  // wrapper would report the wrapper's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB
    }
  }
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over the pair: distinct salts of one seed and
  // equal salts of distinct seeds land far apart.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::unique_ptr<rv::pltl::FormulaMonitor>> shipped_monitors(
    const rv::pltl::BindParams& params) {
  std::vector<std::unique_ptr<rv::pltl::FormulaMonitor>> monitors;
  for (const auto& spec : rv::pltl::shipped_monitor_specs()) {
    auto made = rv::pltl::make_monitor(spec, params);
    if (made.ok()) monitors.push_back(std::move(made.monitor));
  }
  return monitors;
}

// ---- Report ----

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
  std::printf("e2e %s %s %.17g %s\n", name.c_str(), workload_.c_str(), value,
              unit.c_str());
  std::fflush(stdout);
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit, const std::string& target) {
  metrics_.push_back({name, value, unit});
  std::printf("layer %s %s %.17g %s -> %s\n", name.c_str(), workload_.c_str(),
              value, unit.c_str(), target.c_str());
  std::fflush(stdout);
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("check FAILED %s: %s\n", workload_.c_str(), what.c_str());
    std::fflush(stdout);
  }
  return ok;
}

void Report::note(const std::string& text) const {
  std::printf("# %s\n", text.c_str());
  std::fflush(stdout);
}

void Report::print_summary() const {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              failed_ == 0 ? "true" : "false", attempted_, failed_);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- Tracer ----

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Scope Tracer::span(const char* name) {
  if (!enabled_) return Scope{nullptr, -1};
  spans_.push_back(Span{name, now_ns(), 0, open_, run_});
  open_ = static_cast<int>(spans_.size()) - 1;
  return Scope{this, open_};
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end_ns = tracer_->now_ns();
  tracer_->open_ = span.parent;
}

std::vector<double> Tracer::self_seconds(std::string_view name) const {
  // Children are closed, disjoint sub-intervals of their parent (spans
  // nest on one thread), so a parent's self time is its duration minus
  // the summed durations of its direct children.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                      child_ns[i]) *
                  1e-9);
  }
  return out;
}

double Tracer::self_total(std::string_view name) const {
  double total = 0;
  for (const double s : self_seconds(name)) total += s;
  return total;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"name\": \"" << span.name << "\", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << ", \"parent\": " << span.parent
        << ", \"run\": " << span.run << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- measurement skeleton ----

namespace {

// Set-up is sampled in equal batches, one before the warm-up (the jobs
// need a set-up) and one before every job, so that a burst of load from
// other processes moves the samples of one batch, not the median.
constexpr double kSetupBatchSeconds = 0.002;
constexpr int kMinJobs = 3;

double timed(const std::function<void()>& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

}  // namespace

double JobParts::job_seconds(int jobs) const {
  double total = 0;
  for (const std::vector<double>& samples : samples_) {
    total += quantile(samples, 0) * static_cast<double>(samples.size()) /
             static_cast<double>(jobs);
  }
  return total;
}

std::vector<double> JobParts::fastest() const {
  std::vector<double> out;
  for (const std::vector<double>& samples : samples_) {
    out.push_back(quantile(samples, 0));
  }
  return out;
}

void measure(const Options& options, Report& report, Tracer& tracer,
             const std::function<void()>& setup, const Job& job) {
  JobParts parts;
  if (options.trace) {
    tracer.set_enabled(true);
    tracer.set_run(-1);
    setup();
    tracer.set_enabled(false);
    job(0, parts);
    const double untraced = timed([&] { job(1, parts); });
    tracer.set_enabled(true);
    tracer.set_run(2);
    const double traced = timed([&] { job(2, parts); });
    report.layer("bench.trace_overhead_pct",
                 (traced - untraced) / untraced * 100.0, "%", "job_s");
    return;
  }

  std::vector<double> setups;
  const auto sample_setup = [&] {
    double spent = 0;
    do {
      setups.push_back(timed(setup));
      spent += setups.back();
    } while (!options.smoke && spent < kSetupBatchSeconds);
  };
  sample_setup();
  job(0, parts);
  parts.clear();
  std::vector<double> jobs;
  double peak_mb = 0;
  // The run's clock includes the set-ups between jobs, so a run lasts
  // about options.seconds whatever its set-up costs.
  const auto start = Clock::now();
  for (int i = 1;; ++i) {
    if (!options.smoke) sample_setup();
    jobs.push_back(timed([&] { job(i, parts); }));
    // Peak memory of doing the work, before many repetitions can add
    // allocator drift (which makes later readings vary run to run).
    if (static_cast<int>(jobs.size()) <= kMinJobs) peak_mb = peak_rss_mb();
    if (options.smoke) break;
    if (static_cast<int>(jobs.size()) >= kMinJobs &&
        seconds_since(start) + median(jobs) > options.seconds) {
      break;
    }
  }
  const int count = static_cast<int>(jobs.size());
  report.e2e("setup_s", median(setups), "s");
  report.e2e("job_s", parts.job_seconds(count), "s");
  report.e2e("peak_rss_mb", peak_mb, "MB");
  char line[200];
  std::snprintf(line, sizeof line,
                "%d jobs and %zu set-ups in %.3f s: job min %.6g q1 %.6g "
                "median %.6g q3 %.6g max %.6g",
                count, setups.size(), seconds_since(start), quantile(jobs, 0),
                quantile(jobs, 0.25), quantile(jobs, 0.5), quantile(jobs, 0.75),
                quantile(jobs, 1));
  report.note(line);
  std::string fastest = "fastest part times (s):";
  for (const double t : parts.fastest()) {
    std::snprintf(line, sizeof line, " %.6g", t);
    fastest += line;
  }
  report.note(fastest);
}

}  // namespace ahb::e2e
