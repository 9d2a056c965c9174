// rfdbench: runs one benchmark workload against the rfdnet library and
// prints its metrics, checks and fingerprints; the last line of stdout is a
// JSON object {"correct","attempted","failed","metrics"}.
//
//   rfdbench --workload paper_sweeps --seed 3 --seconds 10 --trace 0
//            [--daemon PATH] [--socket-dir DIR]
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.

#include "bench.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>

#include "core/fnv1a.hpp"

namespace rfdbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) failures_.push_back(what);
}

void Report::fingerprint(const std::string& bytes) {
  fingerprinted_ = true;
  outputs_ += bytes;
}

void Report::series(const std::string& label,
                    const std::vector<double>& values) {
  std::string line = label + ":";
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, " %.6g", v);
    line += buf;
  }
  details_.push_back(line);
}

namespace {

// Shortest text that reads back as the same double: every measured digit is
// kept, as the result line requires.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

void Report::print() const {
  for (const std::string& line : details_) std::cout << line << "\n";
  for (const Metric& m : metrics_) {
    std::cout << "metric " << m.name << " = " << number(m.value) << " "
              << m.unit << "\n";
  }
  if (fingerprinted_) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64,
                  rfdnet::core::fnv1a(outputs_));
    std::cout << "output fingerprint: " << buf << "\n";
  }
  std::cout << "checks: " << checks_ - failures_.size() << "/" << checks_
            << " passed\n";
  for (const std::string& f : failures_) std::cout << "CHECK FAILED: " << f
                                                   << "\n";
  std::ostringstream os;
  os << "{\"correct\":" << (correct() ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i) os << ",";
    os << "\"" << metrics_[i].name << "\":{\"value\":"
       << number(metrics_[i].value) << ",\"unit\":\"" << metrics_[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t peak_rss_bytes(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024ULL;
    }
  }
  return 0;
}

HostSpeed::HostSpeed() : next_(std::size_t{1} << 23), last_(Clock::now()) {
  // Sattolo's shuffle of the identity is a single random cycle over all
  // 32 MB: every step of the chase is a dependent load from an unpredictable
  // line. Built in place: a freed temporary of this size would raise
  // glibc's mmap threshold and change how the library's own memory is kept.
  std::iota(next_.begin(), next_.end(), 0u);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next_[i], next_[x % i]);
  }
}

void HostSpeed::sample() {
  const auto t0 = Clock::now();
  std::uint32_t p = 0;
  for (int i = 0; i < 500000; ++i) p = next_[p];
  samples_.push_back(seconds_since(t0));
  last_ = Clock::now();
  end_ = p;
}

void HostSpeed::sample_if_due() {
  if (seconds_since(last_) >= 1.0) sample();
}

double HostSpeed::factor() const {
  return samples_.empty() ? 1.0 : kReferenceS / median(samples_);
}

std::string HostSpeed::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "host speed: kernel median %.6f s over %zu samples "
                "(reference %.3f s); times scaled by %.4f",
                median(samples_), samples_.size(), kReferenceS, factor());
  return buf;
}

HostSpeed& host_speed() {
  static HostSpeed instance;
  return instance;
}

void report_end_to_end(Report& rep, double setup_s, double wall_s,
                       double updates_per_s, double peak_rss_bytes,
                       bool normalise_times, bool normalise_rate) {
  const HostSpeed& host = host_speed();
  const double f = normalise_times ? host.factor() : 1.0;
  const double fr = normalise_rate ? host.factor() : 1.0;
  rep.detail(host.describe());
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "raw: setup_s %.6g s, wall_s %.6g s, updates_per_s %.6g "
                "updates/s",
                setup_s, wall_s, updates_per_s);
  rep.detail(buf);
  rep.metric("setup_s", setup_s * f, "s");
  rep.metric("wall_s", wall_s * f, "s");
  rep.metric("updates_per_s", updates_per_s / fr, "updates/s");
  rep.metric("peak_rss_bytes", peak_rss_bytes, "bytes");
}

int SpanLog::add(const std::string& layer, double duration_s, int parent) {
  spans_.push_back(Span{layer, duration_s, parent});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::unattributed_s(double wall_s) const {
  double top = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == kNoParent) top += s.duration_s;
  }
  return wall_s - top;
}

void SpanLog::print_ledger(double wall_s, double untraced_wall_s) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child[static_cast<std::size_t>(s.parent)] += s.duration_s;
    }
  }
  std::map<std::string, std::pair<double, std::uint64_t>> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& row = self[spans_[i].layer];
    row.first += spans_[i].duration_s - child[i];
    row.second += 1;
  }
  const double rest = unattributed_s(wall_s);
  double sum = rest;
  std::printf("trace ledger (thread-seconds of the traced phase):\n");
  std::printf("  %-26s %12s %10s %8s\n", "layer", "self_s", "spans",
              "share");
  for (const auto& [layer, row] : self) {
    sum += row.first;
    std::printf("  %-26s %12.6f %10llu %7.2f%%\n", layer.c_str(), row.first,
                static_cast<unsigned long long>(row.second),
                wall_s > 0 ? 100.0 * row.first / wall_s : 0.0);
  }
  std::printf("  %-26s %12.6f %10s %7.2f%%\n", "unattributed", rest, "-",
              wall_s > 0 ? 100.0 * rest / wall_s : 0.0);
  std::printf("  %-26s %12.6f (traced wall %.6f)\n", "sum", sum, wall_s);
  if (untraced_wall_s > 0) {
    std::printf("tracing overhead: traced %.6f s vs untraced %.6f s "
                "(%+.2f%%)\n",
                wall_s, untraced_wall_s,
                100.0 * (wall_s / untraced_wall_s - 1.0));
  }
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"sim.events", "count"},
      {"sim.timers_cancelled", "count"},
      {"sim.dispatch_ns", "ns"},
      {"sim.rounds", "count"},
      {"sim.cross_shard_msgs", "count"},
      {"sim.barrier_wait_s", "s"},
      {"sim.shard_busy_s", "s"},
      {"net.build_s", "s"},
      {"net.partition_s", "s"},
      {"net.cut_links", "count"},
      {"bgp.updates", "count"},
      {"bgp.mrai_deferrals", "count"},
      {"bgp.path_node_builds", "count"},
      {"bgp.delivery_s", "s"},
      {"bgp.mrai_flush_s", "s"},
      {"bgp.rib_op_ns", "ns"},
      {"bgp.rib_resident_peak", "count"},
      {"bgp.pool_high_water", "count"},
      {"rfd.on_update_ns", "ns"},
      {"rfd.reuse_timer_s", "s"},
      {"rfd.charges", "count"},
      {"rfd.suppressions", "count"},
      {"rfd.reuses", "count"},
      {"rfd.tracked_entries_peak", "count"},
      {"core.trial_s_p50", "s"},
      {"core.pool_idle_s", "s"},
      {"core.warmup_s", "s"},
      {"svc.parse_ns", "ns"},
      {"svc.response_bytes", "bytes"},
      {"svc.transport_ms", "ms"},
      {"svc.queue_wait_ms", "ms"},
      {"svc.run_ms", "ms"},
      {"svc.cache_hits", "count"},
      {"svc.jobs_completed", "count"},
      {"svc.hit_p50_ms", "ms"},
      {"svc.hit_p99_ms", "ms"},
      {"svc.small_job_p99_ms", "ms"},
      {"svc.beside_large_pct", "%"},
      {"svc.beside_p50_ms", "ms"},
      {"trace.unattributed_s", "s"},
      {"trace.overhead_pct", "%"},
  };
  return kNames;
}

}  // namespace rfdbench

namespace {

void usage() {
  std::cerr << "usage: rfdbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--daemon PATH] [--socket-dir DIR]\n"
               "workloads: paper_sweeps full_table_churn internet_10k "
               "whatif_service\n";
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return errno == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rfdbench;
  Options opt;
  opt.threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::string trace = "0";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed" && parse_u64(value, &n)) {
      opt.seed = n;
    } else if (flag == "--seconds" && parse_u64(value, &n) && n >= 1) {
      opt.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      trace = value;
    } else if (flag == "--daemon") {
      opt.daemon = value;
    } else if (flag == "--socket-dir") {
      opt.socket_dir = value;
    } else {
      std::cerr << "error: bad flag or value: " << flag << " " << value
                << "\n";
      usage();
      return 2;
    }
  }
  opt.trace = trace == "1";

  Report rep;
  if (opt.trace) {
    for (const auto& [name, unit] : per_layer_metrics()) {
      rep.metric(name, 0.0, unit);
    }
  }
  std::cout << "workload " << opt.workload << " seed " << opt.seed
            << " seconds " << opt.seconds << " trace " << trace
            << " threads " << opt.threads << "\n"
            << "build: " << RFDBENCH_COMPILER << ", " << RFDBENCH_BUILD_TYPE
            << "\n";
  try {
    if (opt.workload == "paper_sweeps") {
      run_paper_sweeps(opt, rep);
    } else if (opt.workload == "full_table_churn") {
      run_full_table_churn(opt, rep);
    } else if (opt.workload == "internet_10k") {
      run_internet_10k(opt, rep);
    } else if (opt.workload == "whatif_service") {
      run_whatif_service(opt, rep);
    } else {
      std::cerr << "error: unknown workload '" << opt.workload << "'\n";
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    rep.check(false, std::string("workload threw: ") + e.what());
  }
  rep.print();
  return rep.correct() ? 0 : 1;
}
