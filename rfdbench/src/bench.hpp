// Shared plumbing of the rfdnet benchmark runner: options, the result
// report (metrics + checks), timing and statistics helpers, the in-memory
// span log of the traced mode, and the workload entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace rfdbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Path of the `rfdnetd` binary (whatif_service only).
  std::string daemon;
  /// Directory for the daemon's AF_UNIX socket (whatif_service only).
  std::string socket_dir = ".";
  /// Load-side threads / connections / shards: the host's CPU count.
  int threads = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: operation counts, end-to-end or per-layer
/// metrics, the output checks, a fingerprint of the deterministic outputs
/// and free-form detail lines for the human reader.
class Report {
 public:
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit);
  /// Records one output check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
  void detail(const std::string& line) { details_.push_back(line); }
  /// A detail line listing every value of a measured series.
  void series(const std::string& label, const std::vector<double>& values);
  /// Adds `bytes` to the deterministic outputs the run's fingerprint
  /// (FNV-1a) covers.
  void fingerprint(const std::string& bytes);

  bool correct() const { return failures_.empty(); }
  /// Prints detail lines, checks, the fingerprint and, last, the one-line
  /// JSON result object.
  void print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> details_;
  std::vector<std::string> failures_;
  std::uint64_t checks_ = 0;
  std::string outputs_;  // deterministic outputs, hashed when printed
  bool fingerprinted_ = false;
};

// --- statistics -----------------------------------------------------------

/// Quantile by linear interpolation between order statistics (q in [0,1]).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
inline double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Peak resident set (VmHWM) of `pid` (0 = this process), in bytes.
std::uint64_t peak_rss_bytes(pid_t pid = 0);

// --- host speed -----------------------------------------------------------

/// Host-speed reference for the end-to-end times. On a shared machine the
/// same memory-bound run can take 40% longer when neighbours load the shared
/// cache; a fixed kernel of the same kind, timed between operations, slows
/// by the same share. End-to-end times are reported as raw seconds times
/// `factor()` = kReferenceS / (median kernel time of this run): seconds on a
/// host where the kernel takes kReferenceS. The kernel is this file's own
/// code, so no change to the library moves it.
class HostSpeed {
 public:
  /// Kernel time measured on the reference host (4-vCPU Xeon, idle).
  static constexpr double kReferenceS = 0.080;

  HostSpeed();
  /// Times one kernel pass.
  void sample();
  /// Samples when at least a second has passed since the last sample.
  void sample_if_due();
  double factor() const;
  /// Bytes the kernel keeps resident, left out of reported peak RSS. Create
  /// the instance before the workload's own memory.
  std::uint64_t resident_bytes() const {
    return next_.size() * sizeof(std::uint32_t);
  }
  /// Detail line: kernel samples and the factor.
  std::string describe() const;

 private:
  std::vector<std::uint32_t> next_;  // next_[i]: successor of i in the cycle
  std::vector<double> samples_;
  Clock::time_point last_;
  std::uint32_t end_ = 0;  // where the last chase stopped; keeps it observable
};

/// The process-wide instance; the first call allocates and fills its buffer.
HostSpeed& host_speed();

/// Reports the four end-to-end metrics from raw measurements. Memory-bound
/// figures are host-normalised: with `normalise_times` the times are scaled
/// by the host-speed factor, with `normalise_rate` the rate is divided by
/// it. The raw values and the kernel samples are printed either way.
void report_end_to_end(Report& rep, double setup_s, double wall_s,
                       double updates_per_s, double peak_rss_bytes,
                       bool normalise_times, bool normalise_rate);

// --- traced mode ----------------------------------------------------------

/// In-memory span log. A span is a named interval attributed to a layer,
/// with an optional parent; durations are in thread-seconds, so spans that
/// ran concurrently on pool threads add up. Spans derived from a layer's own
/// counters (e.g. the engine profile's handler time) are recorded with a
/// duration only. Nothing is written until `print_ledger`.
class SpanLog {
 public:
  static constexpr int kNoParent = -1;
  int add(const std::string& layer, double duration_s, int parent = kNoParent);
  /// Self time per layer (duration minus the part covered by child spans),
  /// plus the `unattributed` remainder of `wall_s` (thread-seconds of the
  /// traced phase not covered by any top-level span).
  void print_ledger(double wall_s, double untraced_wall_s) const;
  double unattributed_s(double wall_s) const;

 private:
  struct Span {
    std::string layer;
    double duration_s = 0.0;
    int parent = kNoParent;
  };
  std::vector<Span> spans_;
};

// --- workloads --------------------------------------------------------------

void run_paper_sweeps(const Options& opt, Report& rep);
void run_full_table_churn(const Options& opt, Report& rep);
void run_internet_10k(const Options& opt, Report& rep);
void run_whatif_service(const Options& opt, Report& rep);

/// The per-layer metric names every traced run reports, in order; a traced
/// run fills the ones its workload exercises and reports 0 for the rest.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace rfdbench
