// internet_10k: one 3-pulse Cisco experiment on a 10,000-node Internet-like
// graph that the benchmark builds itself and hands to the library as
// `topology_graph`. The measured operation is the default serial path
// (`core::run_experiment`); after it, the same experiment runs under
// `core::run_sharded_experiment` at one shard per CPU and at one shard, as a
// check and as the traced run's sharded-engine layer.

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "core/sharded.hpp"
#include "layers.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"

namespace rfdbench {

namespace {

using namespace rfdnet;

constexpr int kNodes = 10000;
// The graph is one fixed 10k-node topology, as the paper's experiments use one
// fixed graph, and the origin attaches to its best-connected AS; the run's
// seed draws every processing-delay variate.
constexpr std::uint64_t kGraphSeed = 2005;

/// The shard-count-invariant outputs of a serial run, for the fingerprint
/// and the run-to-run determinism check.
std::string serial_canonical(const core::ExperimentResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.origin << "," << r.isp << "," << r.message_count << ","
     << r.convergence_time_s << "," << r.suppress_events << ","
     << r.noisy_reuses << "," << r.silent_reuses << "," << r.max_penalty
     << "," << r.isp_suppressed << "," << r.warmup_tup_s << ","
     << r.hit_horizon;
  return os.str();
}

void check_run(const core::ExperimentResult& r, Report& rep,
               const std::string& label) {
  rep.check(!r.hit_horizon, label + ": converged without hitting the horizon");
  rep.check(r.noisy_reuses + r.silent_reuses <= r.suppress_events,
            label + ": reuses (" +
                std::to_string(r.noisy_reuses + r.silent_reuses) +
                ") are at most suppressions (" +
                std::to_string(r.suppress_events) + ")");
}

void traced_serial(core::ExperimentConfig cfg, double untraced_wall_s,
                   Report& rep) {
  cfg.profile = true;
  cfg.collect_metrics = true;
  const auto t0 = Clock::now();
  const core::ExperimentResult res = core::run_experiment(cfg);
  const double wall = seconds_since(t0);
  const sim::EngineProfile& p = res.profile;

  // Only the handler time by event kind is timed inside run_experiment; the
  // engine's own dispatch, network construction and the warm-up glue are the
  // unattributed rest.
  SpanLog spans;
  add_handler_spans(spans, p, SpanLog::kNoParent);
  spans.print_ledger(wall, untraced_wall_s);

  report_profile(p, wall, rep);
  rep.metric("bgp.path_node_builds", static_cast<double>(p.alloc.node_builds),
             "count");
  rep.metric("bgp.pool_high_water",
             static_cast<double>(p.alloc.pool_high_water), "count");
  report_counters(res.metrics, rep);
  rep.metric("trace.unattributed_s", spans.unattributed_s(wall), "s");
  rep.metric("trace.overhead_pct", 100.0 * (wall / untraced_wall_s - 1.0),
             "%");
}

void traced_sharded(core::ExperimentConfig cfg, int shards,
                    double untraced_wall_s, Report& rep) {
  cfg.collect_metrics = true;
  const auto t0 = Clock::now();
  const core::ShardedExperimentResult res =
      core::run_sharded_experiment(cfg, shards);
  const double wall = seconds_since(t0);
  const sim::ShardedEngine::Stats& st = res.engine_stats;
  const double wait_s = (st.barrier_wait_ns + st.close_wait_ns) * 1e-9;
  const double busy_s = st.busy_ns * 1e-9;

  // Thread-seconds: every shard thread is either busy in its window, waiting
  // at a barrier, or outside the round loop (build, warm-up glue, merge).
  SpanLog spans;
  spans.add("sim.shard_busy", busy_s);
  spans.add("sim.barrier_wait", wait_s);
  spans.print_ledger(wall * res.partition.shards,
                     untraced_wall_s * res.partition.shards);

  rep.metric("sim.rounds", static_cast<double>(st.rounds), "count");
  rep.metric("sim.cross_shard_msgs", static_cast<double>(st.cross_posted),
             "count");
  rep.metric("sim.barrier_wait_s", wait_s, "s");
  rep.metric("sim.shard_busy_s", busy_s, "s");
  rep.metric("net.cut_links", static_cast<double>(res.partition.cut_links),
             "count");
}

}  // namespace

void run_internet_10k(const Options& opt, Report& rep) {
  HostSpeed& host = host_speed();
  host.sample();
  // Set-up: build the graph and partition it at one shard per CPU, repeated;
  // medians reported.
  std::vector<double> setup_s, build_s, partition_s;
  net::Graph graph;
  net::Partition partition;
  for (int i = 0; i < 21; ++i) {
    const auto t0 = Clock::now();
    sim::Rng rng(kGraphSeed);
    graph = net::make_internet_like(kNodes, rng);
    build_s.push_back(seconds_since(t0));
    const auto p0 = Clock::now();
    partition = net::partition_graph(graph, opt.threads);
    partition_s.push_back(seconds_since(p0));
    setup_s.push_back(seconds_since(t0));
  }

  core::ExperimentConfig cfg;
  net::NodeId hub = 0;
  for (net::NodeId u = 0; u < graph.node_count(); ++u) {
    if (graph.degree(u) > graph.degree(hub)) hub = u;
  }
  cfg.topology_graph = graph;
  cfg.isp = hub;
  cfg.pulses = 3;
  cfg.seed = opt.seed;

  std::vector<double> walls;
  std::string reference;
  std::uint64_t updates = 0;
  const auto start = Clock::now();
  do {
    host.sample_if_due();
    const auto t0 = Clock::now();
    const core::ExperimentResult r = core::run_experiment(cfg);
    walls.push_back(seconds_since(t0));
    const std::string canonical = serial_canonical(r);
    updates = r.message_count;
    ++rep.attempted;
    if (reference.empty()) {
      check_run(r, rep, "serial");
      reference = canonical;
    } else {
      const bool same = canonical == reference;
      rep.check(same, "serial run " + std::to_string(walls.size()) +
                          " reproduces the first run");
      if (!same) ++rep.failed;
    }
  } while (seconds_since(start) < opt.seconds);
  const double wall = median(walls);
  host.sample();
  const double rss =
      static_cast<double>(peak_rss_bytes() - host.resident_bytes());
  rep.series("operation wall times (s)", walls);
  rep.fingerprint(reference);

  // The sharded engine on the same experiment, after the measured phase:
  // its own checks, and the determinism contract that one shard and one
  // shard per CPU give byte-identical scorecards. Its time is reported but
  // not gated: barrier rounds make it swing 2-10 s on a shared host.
  const auto s0 = Clock::now();
  const core::ShardedExperimentResult wide =
      core::run_sharded_experiment(cfg, opt.threads);
  const double sharded_s = seconds_since(s0);
  check_run(wide.base, rep, "sharded");
  const core::ShardedExperimentResult one =
      core::run_sharded_experiment(cfg, 1);
  rep.check(one.scorecard() == wide.scorecard(),
            "scorecards are byte-identical at shards 1 and " +
                std::to_string(opt.threads));
  rep.fingerprint(wide.scorecard());

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "internet_10k: %zu nodes, %zu links, 3 pulses, %zu serial "
                "runs, %llu updates per run",
                graph.node_count(), graph.link_count(), walls.size(),
                static_cast<unsigned long long>(updates));
  rep.detail(buf);
  std::snprintf(buf, sizeof buf,
                "sharded at %d shards (%zu cut links): %.3f s, %llu updates, "
                "%.0f updates/s",
                partition.shards, partition.cut_links, sharded_s,
                static_cast<unsigned long long>(wide.base.message_count),
                static_cast<double>(wide.base.message_count) / sharded_s);
  rep.detail(buf);

  if (opt.trace) {
    rep.metric("net.build_s", median(build_s), "s");
    rep.metric("net.partition_s", median(partition_s), "s");
    traced_sharded(cfg, opt.threads, sharded_s, rep);
    traced_serial(cfg, wall, rep);
    return;
  }
  report_end_to_end(rep, median(setup_s), wall,
                    static_cast<double>(updates) / wall, rss, true,
                    true);
}

}  // namespace rfdbench
