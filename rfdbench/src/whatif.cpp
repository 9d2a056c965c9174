// whatif_service: the real `rfdnetd` daemon over AF_UNIX, driven open-loop by
// this process. The schedule repeats a two-second round: small cold what-if
// experiments (fresh seeds), repeats of the previous round's small jobs
// (cache hits) and one large full_table job. At most one connection per CPU
// sends the requests; each request is timed from when it was due, and the
// generator reports how late it ran. Every response is checked afterwards
// against `svc::run_job` run in this process on the same spec.
//
// No production traffic exists to copy, so the mix is built around the one
// measured service scenario: small mesh jobs run ~3 ms alone and hundreds of
// ms beside a 20k-prefix full_table job, because the dispatcher runs its
// queue in batches that end with their slowest job. One large job per round
// keeps large jobs occasional (the daemon stays far from saturation; at four
// per round small jobs queue for 90-230 ms and at eight the backlog grows
// without bound), and puts 10-17% of the small jobs beside one. The gated
// small-job p50 therefore cannot see the batching effect; the p50 and p90
// of the jobs beside a large one, and their share, are printed on every run.
// Gated, their p50 spread 20-25% over ten seeds, at the bound.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hpp"
#include "core/fnv1a.hpp"
#include "core/parallel.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/json.hpp"
#include "svc/request.hpp"
#include "svc/service.hpp"

namespace rfdbench {

namespace {

using namespace rfdnet;

constexpr double kRoundS = 2.0;
constexpr int kSmallPerRound = 200;
constexpr int kHitsPerRound = 400;
constexpr std::size_t kCacheCapacity = 512;
constexpr std::size_t kQueueCapacity = 1024;

enum class Kind { kSmall, kHit, kLarge };

struct Request {
  Kind kind = Kind::kSmall;
  double due_s = 0.0;       // offset from the start of the schedule
  int round = 0;            // 0 = warm-up round, not measured
  std::string line;         // protocol line
  std::string canonical;    // canonical job text (the cache key)
  int source = -1;          // hits: index of the cold request they repeat
  // Filled by the generator.
  double sent_s = 0.0;
  double done_s = 0.0;
  std::uint64_t response_hash = 0;
  std::size_t response_bytes = 0;
  bool ok = false;
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL);
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 29;
  return h;
}

std::string small_job(std::uint64_t seed) {
  // The paper's scenario on a small mesh: 1-3 pulses, Cisco or RCN.
  const int pulses = 1 + static_cast<int>(seed % 3);
  const bool rcn = (seed >> 8) % 2 == 1;
  return std::string("{\"outputs\":[\"scorecard\"],\"pulses\":") +
         std::to_string(pulses) + ",\"rcn\":" + (rcn ? "true" : "false") +
         ",\"seed\":" + std::to_string(seed % 1000000007ULL) +
         ",\"topology\":{\"height\":6,\"kind\":\"mesh\",\"width\":6}}";
}

std::string large_job(std::uint64_t seed) {
  return "{\"events\":2000,\"kind\":\"full_table\",\"outputs\":[\"scorecard\"],"
         "\"prefixes\":20000,\"seed\":" +
         std::to_string(seed % 1000000007ULL) + "}";
}

std::string canonical_of(const std::string& job) {
  return svc::Json::parse(job)->dump();
}

/// The request schedule: one unmeasured warm-up round, then `rounds`
/// measured ones. Hits of round k repeat small jobs of round k-1 that were
/// due at least half a round earlier.
std::vector<Request> make_schedule(std::uint64_t seed, int rounds) {
  std::vector<Request> out;
  std::vector<int> prev_small;
  for (int r = 0; r <= rounds; ++r) {
    std::vector<int> small;
    const double base = r * kRoundS;
    for (int i = 0; i < kSmallPerRound; ++i) {
      Request q;
      q.kind = Kind::kSmall;
      q.round = r;
      q.due_s = base + (i + 0.5) * kRoundS / kSmallPerRound;
      const std::string job = small_job(mix(seed, r * 100003ULL + i));
      q.line = "{\"job\":" + job + ",\"op\":\"run\"}";
      q.canonical = canonical_of(job);
      small.push_back(static_cast<int>(out.size()));
      out.push_back(std::move(q));
    }
    if (r > 0) {
      for (int j = 0; j < kHitsPerRound; ++j) {
        Request q;
        q.kind = Kind::kHit;
        q.round = r;
        q.due_s = base + (j + 0.25) * kRoundS / kHitsPerRound;
        // Previous-round job due at most half a round into that round.
        const int src = prev_small[static_cast<std::size_t>(
            (j * kSmallPerRound / kHitsPerRound) / 2)];
        q.source = src;
        q.line = out[static_cast<std::size_t>(src)].line;
        q.canonical = out[static_cast<std::size_t>(src)].canonical;
        out.push_back(std::move(q));
      }
    }
    Request big;
    big.kind = Kind::kLarge;
    big.round = r;
    big.due_s = base + 0.5 * kRoundS;
    const std::string job = large_job(mix(seed ^ 0xfeedULL, r));
    big.line = "{\"job\":" + job + ",\"op\":\"run\"}";
    big.canonical = canonical_of(job);
    out.push_back(std::move(big));
    prev_small = std::move(small);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Request& a, const Request& b) {
                     return a.due_s < b.due_s;
                   });
  // Sorting moved the sources; re-point hits by canonical text.
  std::map<std::string, int> cold;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].kind == Kind::kSmall) {
      cold[out[i].canonical] = static_cast<int>(i);
    }
  }
  for (Request& q : out) {
    if (q.kind == Kind::kHit) q.source = cold.at(q.canonical);
  }
  return out;
}

/// Open-loop generator over `connections` client connections. Hits wait
/// until the response they repeat has arrived, so each one is a cache hit.
/// `on_measured`, when set, runs once, just before the first request of the
/// measured rounds is sent.
bool drive(const std::string& socket, int connections,
           std::vector<Request>& reqs, std::string* error,
           const std::function<void()>& on_measured = {}) {
  std::once_flag measured_once;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  std::vector<char> done(reqs.size(), 0);
  std::string first_error;
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      svc::Client client;
      std::string err;
      if (!client.connect(socket, &err)) {
        std::lock_guard<std::mutex> lk(mu);
        if (first_error.empty()) first_error = err;
        return;
      }
      std::string response;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= reqs.size()) return;
        Request& q = reqs[i];
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(q.due_s));
        std::this_thread::sleep_until(due);
        if (q.round > 0 && on_measured) {
          std::call_once(measured_once, on_measured);
        }
        if (q.source >= 0) {
          std::unique_lock<std::mutex> lk(mu);
          done_cv.wait(lk, [&] {
            return done[static_cast<std::size_t>(q.source)] != 0;
          });
        }
        q.sent_s = seconds_since(t0);
        if (!client.request(q.line, &response, &err)) {
          std::lock_guard<std::mutex> lk(mu);
          if (first_error.empty()) first_error = err;
          done[i] = 1;
          done_cv.notify_all();
          return;
        }
        q.done_s = seconds_since(t0);
        q.response_bytes = response.size();
        q.response_hash = core::fnv1a(response);
        q.ok = response.rfind("{\"ok\":true", 0) == 0;
        {
          std::lock_guard<std::mutex> lk(mu);
          done[i] = 1;
        }
        done_cv.notify_all();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *error = first_error;
  return first_error.empty();
}

/// A spawned `rfdnetd`; stopped (shutdown request, then SIGKILL) and reaped
/// on destruction.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& binary, const std::string& socket,
                int threads)
      : socket_(socket) {
    const std::string jobs = std::to_string(threads);
    const std::string queue = std::to_string(kQueueCapacity);
    const std::string cache = std::to_string(kCacheCapacity);
    pid_ = ::fork();
    if (pid_ == 0) {
      const char* argv[] = {binary.c_str(), "--socket", socket.c_str(),
                            "--jobs", jobs.c_str(), "--queue", queue.c_str(),
                            "--cache", cache.c_str(), nullptr};
      ::execv(binary.c_str(), const_cast<char* const*>(argv));
      std::_Exit(127);
    }
  }
  ~DaemonProcess() { stop(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Polls `ping` until the daemon answers; false after ~10 s.
  bool wait_ready() {
    for (int i = 0; i < 10000; ++i) {
      svc::Client c;
      std::string response, err;
      if (c.connect(socket_, &err) &&
          c.request("{\"op\":\"ping\"}", &response, &err) &&
          response.find("\"pong\":true") != std::string::npos) {
        return true;
      }
      int status = 0;
      if (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  std::string request(const std::string& line) {
    svc::Client c;
    std::string response, err;
    if (!c.connect(socket_, &err) || !c.request(line, &response, &err)) {
      return "";
    }
    return response;
  }

  /// Graceful stop; returns the exit status (-1 when it had to be killed).
  int stop() {
    if (pid_ <= 0) return -1;
    request("{\"op\":\"shutdown\"}");
    int status = 0;
    for (int i = 0; i < 5000; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return -1;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

std::uint64_t status_field(const std::string& status, const std::string& key) {
  const auto parsed = svc::Json::parse(status);
  const svc::Json* s = parsed ? parsed->find("status") : nullptr;
  const svc::Json* v = s ? s->find(key) : nullptr;
  return v && v->is_number() ? static_cast<std::uint64_t>(v->as_number())
                             : ~0ULL;
}

std::uint64_t update_count(const std::string& payload) {
  for (const char* key : {"\"message_count\":", "\"delivered\":"}) {
    const std::size_t at = payload.find(key);
    if (at != std::string::npos) {
      return std::strtoull(payload.c_str() + at + std::strlen(key), nullptr,
                           10);
    }
  }
  return 0;
}

/// Whether a request was due while some large job was in flight (sent, not
/// yet answered): a small job due then is queued beside that large job.
bool due_beside_large(const Request& q, const std::vector<Request>& reqs) {
  for (const Request& big : reqs) {
    if (big.kind == Kind::kLarge && big.sent_s <= q.due_s &&
        q.due_s < big.done_s) {
      return true;
    }
  }
  return false;
}

struct Summary {
  std::vector<double> small_ms, hit_ms, large_ms, late_ms;
  /// Small jobs due while a large job was in flight.
  std::vector<double> beside_ms;
  double large_updates = 0.0;
  double large_latency_s = 0.0;
  std::uint64_t measured = 0;
};

/// Checks every response against an in-process `svc::run_job` of the same
/// spec and every hit against its cold response; sums the simulated updates.
Summary verify(const std::vector<Request>& reqs, int threads, Report& rep) {
  std::vector<std::size_t> cold;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].kind != Kind::kHit) cold.push_back(i);
  }
  std::vector<std::uint64_t> expected(cold.size(), 0);
  std::vector<std::uint64_t> updates(cold.size(), 0);
  core::ParallelRunner runner(threads);
  runner.for_each(cold.size(), [&](std::size_t k) {
    const auto job = svc::Json::parse(reqs[cold[k]].line);
    std::string err;
    const auto spec = svc::parse_job(*job->find("job"), &err);
    if (!spec) return;
    const std::string payload = svc::run_job(*spec);
    expected[k] = core::fnv1a("{\"ok\":true,\"payload\":" + payload + "}");
    updates[k] = update_count(payload);
  });

  Summary s;
  std::uint64_t cold_bad = 0, hit_bad = 0, not_ok = 0;
  for (std::size_t k = 0; k < cold.size(); ++k) {
    const Request& q = reqs[cold[k]];
    if (q.response_hash != expected[k]) ++cold_bad;
    if (q.round > 0 && q.kind == Kind::kLarge) {
      s.large_updates += static_cast<double>(updates[k]);
      s.large_latency_s += q.done_s - q.due_s;
    }
  }
  for (const Request& q : reqs) {
    if (!q.ok) ++not_ok;
    if (q.kind == Kind::kHit &&
        q.response_hash !=
            reqs[static_cast<std::size_t>(q.source)].response_hash) {
      ++hit_bad;
    }
    if (q.round == 0) continue;
    ++s.measured;
    const double ms = 1e3 * (q.done_s - q.due_s);
    s.late_ms.push_back(1e3 * (q.sent_s - q.due_s));
    (q.kind == Kind::kSmall ? s.small_ms
     : q.kind == Kind::kHit ? s.hit_ms
                            : s.large_ms)
        .push_back(ms);
    if (q.kind == Kind::kSmall && due_beside_large(q, reqs)) {
      s.beside_ms.push_back(ms);
    }
  }
  rep.check(not_ok == 0, std::to_string(not_ok) + " responses were not ok");
  rep.check(cold_bad == 0,
            "cold responses byte-identical to in-process svc::run_job (" +
                std::to_string(cold_bad) + " of " +
                std::to_string(cold.size()) + " differ)");
  rep.check(hit_bad == 0, "hits byte-identical to their cold responses (" +
                              std::to_string(hit_bad) + " differ)");
  return s;
}

void check_status(const std::string& status, const std::vector<Request>& reqs,
                  Report& rep) {
  std::uint64_t cold = 0, hits = 0;
  for (const Request& q : reqs) (q.kind == Kind::kHit ? hits : cold) += 1;
  const bool agree = status_field(status, "jobs_completed") == cold &&
                     status_field(status, "cache_hits") == hits &&
                     status_field(status, "jobs_failed") == 0 &&
                     status_field(status, "rejected_queue_full") == 0 &&
                     status_field(status, "rejected_draining") == 0;
  rep.check(agree, "daemon status agrees with the client (" +
                       std::to_string(cold) + " completed, " +
                       std::to_string(hits) +
                       " hits, none failed or rejected): " + status);
}

double share_pct(std::size_t part, std::size_t whole) {
  return whole ? 100.0 * static_cast<double>(part) / static_cast<double>(whole)
               : 0.0;
}

void print_summary(const char* label, const Summary& s, Report& rep) {
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "%s: %llu measured requests; small p50 %.3f ms p99 %.3f ms mean %.3f "
      "ms (n=%zu); small due beside a large job: %.1f%%, p50 %.3f ms p90 "
      "%.3f ms mean %.3f ms (n=%zu); hit p50 %.3f ms p99 %.3f ms (n=%zu); "
      "large p50 %.1f ms (n=%zu); generator late p50 %.3f ms p99 %.3f ms "
      "max %.3f ms",
      label, static_cast<unsigned long long>(s.measured),
      quantile(s.small_ms, 0.5), quantile(s.small_ms, 0.99), mean(s.small_ms),
      s.small_ms.size(), share_pct(s.beside_ms.size(), s.small_ms.size()),
      quantile(s.beside_ms, 0.5), quantile(s.beside_ms, 0.9),
      mean(s.beside_ms), s.beside_ms.size(),
      quantile(s.hit_ms, 0.5), quantile(s.hit_ms, 0.99), s.hit_ms.size(),
      quantile(s.large_ms, 0.5), s.large_ms.size(), quantile(s.late_ms, 0.5),
      quantile(s.late_ms, 0.99),
      s.late_ms.empty()
          ? 0.0
          : *std::max_element(s.late_ms.begin(), s.late_ms.end()));
  rep.detail(buf);
}

/// Traced run: the same schedule against an in-process `svc::Service` with a
/// timing job runner, behind `svc::Daemon` on its own socket.
void traced(const Options& opt, const std::string& socket,
            const Summary& untraced, Report& rep) {
  struct JobTime {
    double start_s = 0.0;
    double end_s = 0.0;
  };
  std::mutex mu;
  std::map<std::string, JobTime> job_times;
  const auto t0 = Clock::now();
  core::ParallelRunner pool(opt.threads);
  svc::ServiceConfig scfg;
  scfg.queue_capacity = kQueueCapacity;
  scfg.cache_capacity = kCacheCapacity;
  scfg.runner = &pool;
  svc::Service service(scfg, [&](const svc::JobSpec& spec) {
    const double start = seconds_since(t0);
    std::string out = svc::run_job(spec);
    const double end = seconds_since(t0);
    std::lock_guard<std::mutex> lk(mu);
    job_times[spec.canonical] = JobTime{start, end};
    return out;
  });
  svc::DaemonConfig dcfg;
  dcfg.socket_path = socket;
  svc::Daemon daemon(dcfg, service);
  std::string err;
  if (!daemon.start(&err)) {
    rep.check(false, "traced daemon start: " + err);
    return;
  }
  std::thread server([&] { daemon.serve(); });

  const int rounds = std::max(1, static_cast<int>(opt.seconds / kRoundS));
  std::vector<Request> reqs = make_schedule(opt.seed, rounds);
  const double phase0 = seconds_since(t0);
  const bool ok = drive(socket, opt.threads, reqs, &err);
  rep.check(ok, "traced generator: " + err);
  const svc::Service::Stats stats = service.stats();
  // `drive` times against its own start; shift onto this clock.
  for (Request& q : reqs) {
    q.sent_s += phase0;
    q.done_s += phase0;
    q.due_s += phase0;
  }

  // Server-side cost of a hit without the socket: parse, cache lookup, copy.
  std::vector<double> handle_ms;
  std::vector<std::string> hit_lines;
  for (const Request& q : reqs) {
    if (q.kind == Kind::kHit && hit_lines.size() < 200) {
      hit_lines.push_back(q.line);
    }
  }
  for (const std::string& line : hit_lines) {
    const auto h0 = Clock::now();
    const std::string r = service.handle_line(line);
    handle_ms.push_back(1e3 * seconds_since(h0));
    if (r.empty()) rep.check(false, "empty in-process hit");
  }
  daemon.request_stop();
  server.join();

  // Decode cost of every request line, in process.
  std::int64_t parse_ns = 0;
  for (const Request& q : reqs) {
    const auto p0 = Clock::now();
    const auto json = svc::Json::parse(q.line);
    std::string perr;
    const auto spec = svc::parse_job(*json->find("job"), &perr);
    parse_ns += ns_since(p0);
    if (!spec) rep.check(false, "request does not decode: " + perr);
  }

  std::vector<double> queue_ms, run_ms, small_ms, beside_ms, hit_ms;
  SpanLog spans;
  double latency_total = 0.0;
  std::uint64_t bytes = 0;
  const double hit_handle_s = 1e-3 * median(handle_ms);
  for (const Request& q : reqs) {
    if (q.round == 0) continue;
    const double latency = q.done_s - q.due_s;
    latency_total += latency;
    bytes += q.response_bytes;
    spans.add("gen.late", q.sent_s - q.due_s);
    if (q.kind == Kind::kHit) {
      hit_ms.push_back(1e3 * latency);
      spans.add("svc.hit_handle", hit_handle_s);
      continue;
    }
    const auto it = job_times.find(q.canonical);
    if (it == job_times.end()) continue;
    queue_ms.push_back(1e3 * (it->second.start_s - q.sent_s));
    spans.add("svc.queue_wait", it->second.start_s - q.sent_s);
    spans.add("svc.run_job", it->second.end_s - it->second.start_s);
    if (q.kind == Kind::kSmall) {
      small_ms.push_back(1e3 * latency);
      if (due_beside_large(q, reqs)) beside_ms.push_back(1e3 * latency);
      run_ms.push_back(1e3 * (it->second.end_s - it->second.start_s));
    }
  }
  spans.print_ledger(latency_total, 0.0);
  const double traced_p50 = quantile(small_ms, 0.5);
  const double untraced_p50 = quantile(untraced.small_ms, 0.5);
  std::printf("tracing overhead: small-job p50 traced %.3f ms vs untraced "
              "%.3f ms\n",
              traced_p50, untraced_p50);

  rep.metric("svc.parse_ns",
             static_cast<double>(parse_ns) / static_cast<double>(reqs.size()),
             "ns");
  const std::size_t responses = hit_ms.size() + queue_ms.size();
  rep.metric("svc.response_bytes",
             static_cast<double>(bytes) /
                 static_cast<double>(std::max<std::size_t>(1, responses)),
             "bytes");
  rep.metric("svc.transport_ms",
             quantile(hit_ms, 0.5) - median(handle_ms), "ms");
  rep.metric("svc.queue_wait_ms", quantile(queue_ms, 0.5), "ms");
  rep.metric("svc.run_ms", quantile(run_ms, 0.5), "ms");
  rep.metric("svc.cache_hits", static_cast<double>(stats.cache_hits), "count");
  rep.metric("svc.jobs_completed", static_cast<double>(stats.completed),
             "count");
  rep.metric("svc.hit_p50_ms", quantile(hit_ms, 0.5), "ms");
  rep.metric("svc.hit_p99_ms", quantile(hit_ms, 0.99), "ms");
  rep.metric("svc.small_job_p99_ms", quantile(small_ms, 0.99), "ms");
  rep.metric("svc.beside_large_pct",
             share_pct(beside_ms.size(), small_ms.size()), "%");
  rep.metric("svc.beside_p50_ms", quantile(beside_ms, 0.5), "ms");
  rep.metric("trace.unattributed_s", spans.unattributed_s(latency_total), "s");
  rep.metric("trace.overhead_pct", 100.0 * (traced_p50 / untraced_p50 - 1.0),
             "%");
}

}  // namespace

void run_whatif_service(const Options& opt, Report& rep) {
  if (opt.daemon.empty() || ::access(opt.daemon.c_str(), X_OK) != 0) {
    rep.check(false, "rfdnetd binary not found (pass --daemon PATH)");
    return;
  }
  // A short relative path keeps the socket inside the working directory and
  // well under the AF_UNIX path limit.
  const std::string socket =
      opt.socket_dir + "/rfdbench-" + std::to_string(::getpid()) + ".sock";

  // The large jobs' rate is host-normalised like the simulation workloads
  // (it is the same memory-bound work); the kernel runs only outside the
  // measured phase, so it never competes with the daemon.
  HostSpeed& host = host_speed();
  for (int i = 0; i < 3; ++i) host.sample();

  // Set-up: daemon start to first answered ping, repeated; median reported.
  std::vector<double> setup_s;
  std::unique_ptr<DaemonProcess> daemon;
  for (int i = 0; i < 21; ++i) {
    if (daemon) rep.check(daemon->stop() == 0, "daemon drains and exits 0");
    const auto t0 = Clock::now();
    daemon = std::make_unique<DaemonProcess>(opt.daemon, socket, opt.threads);
    const bool ready = daemon->wait_ready();
    setup_s.push_back(seconds_since(t0));
    if (!ready) {
      rep.check(false, "daemon did not answer ping");
      return;
    }
  }

  const int rounds = std::max(1, static_cast<int>(opt.seconds / kRoundS));
  std::vector<Request> reqs = make_schedule(opt.seed, rounds);
  std::string err;
  // The daemon's peak RSS is read when the warm-up round is done: later
  // large jobs grow the allocator arena of whichever pool thread runs them,
  // so the end-of-run peak swings between ~104 and ~160 MB from run to run
  // with the same work.
  double daemon_rss = 0.0;
  const pid_t daemon_pid = daemon->pid();
  const bool ok = drive(socket, opt.threads, reqs, &err, [&] {
    daemon_rss = static_cast<double>(peak_rss_bytes(daemon_pid));
  });
  rep.check(ok, "generator: " + err);
  const std::string status = daemon->request("{\"op\":\"status\"}");
  const double end_rss = static_cast<double>(peak_rss_bytes(daemon_pid));
  rep.check(daemon->stop() == 0, "daemon drains and exits 0");
  daemon.reset();

  for (const Request& q : reqs) {
    if (q.round > 0) ++rep.attempted;
  }
  Summary s = verify(reqs, opt.threads, rep);
  check_status(status, reqs, rep);
  rep.failed = 0;
  for (const Request& q : reqs) {
    if (q.round > 0 && !q.ok) ++rep.failed;
  }
  // Deterministic outputs: the response bytes of every cold job, in order.
  for (const Request& q : reqs) {
    if (q.kind != Kind::kHit) rep.fingerprint(std::to_string(q.response_hash));
  }
  print_summary("whatif_service", s, rep);
  char rss_line[128];
  std::snprintf(rss_line, sizeof rss_line,
                "daemon peak RSS: %.0f MB after warm-up, %.0f MB at the end",
                daemon_rss / 1e6, end_rss / 1e6);
  rep.detail(rss_line);

  if (opt.trace) {
    traced(opt, socket + ".traced", s, rep);
    return;
  }
  rep.check(s.beside_ms.size() >= 10,
            std::to_string(s.beside_ms.size()) +
                " small jobs were due beside a large job (at least 10)");
  for (int i = 0; i < 3; ++i) host.sample();
  report_end_to_end(rep, median(setup_s), 1e-3 * quantile(s.small_ms, 0.5),
                    s.large_latency_s > 0
                        ? s.large_updates / s.large_latency_s
                        : 0.0,
                    daemon_rss, false, true);
}

}  // namespace rfdbench
