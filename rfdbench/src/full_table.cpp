// full_table_churn: `core::run_full_table` with ~120k prefixes, a Zipf
// (alpha = 1) stream of 100k withdraw/re-announce toggles on a 4-router line,
// on the default (hash) store backend, serial. Per-prefix state dominates:
// RIB store, damping entry store and the message pool.

#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "bgp/rib_backend.hpp"
#include "core/full_table.hpp"
#include "layers.hpp"
#include "sim/random.hpp"
#include "stats/zipf.hpp"

namespace rfdbench {

namespace {

using namespace rfdnet;

core::FullTableConfig make_config(std::uint64_t seed) {
  core::FullTableConfig cfg;
  // A few hundred prefixes of jitter around 120k, so the table size is an
  // input drawn from the seed like the toggle stream.
  sim::Rng rng(seed);
  cfg.prefixes = 120000 + rng.uniform_int(0, 255);
  cfg.alpha = 1.0;
  cfg.events = 100000;
  cfg.routers = 4;
  // Long enough for every reuse timer to fire (a suppression lasts at most
  // the 60 min maximum hold-down), so the line ends fully drained.
  cfg.cooldown_s = 3700.0;
  cfg.seed = seed;
  return cfg;
}

void check_result(const core::FullTableConfig& cfg,
                  const core::FullTableResult& res, Report& rep) {
  rep.check(res.toggles_applied == cfg.events,
            "toggles applied (" + std::to_string(res.toggles_applied) +
                ") equal toggles requested (" + std::to_string(cfg.events) +
                ")");
  rep.check(res.updates_sent == res.updates_delivered,
            "updates sent (" + std::to_string(res.updates_sent) +
                ") equal updates delivered (" +
                std::to_string(res.updates_delivered) +
                ") on the loss-free line");
  const std::size_t row = 3 * static_cast<std::size_t>(cfg.routers);
  rep.check(res.final_rib_resident % row == 0 &&
                res.final_rib_resident <= row * cfg.prefixes,
            "final RIB residency " + std::to_string(res.final_rib_resident) +
                " is a multiple of 3 x routers and at most 3 x routers x "
                "prefixes");
  rep.check(res.final_damping_active <= res.final_damping_tracked &&
                res.peak_damping_active <= res.peak_damping_tracked,
            "active damping entries are at most the tracked entries");
  rep.check(!res.hit_horizon, "the line drains within the cooldown");
}

/// Mean cost of one `RibTable` find / find_or_create / erase on this
/// workload's prefix stream: the table is filled, then each toggle target is
/// looked up and erased when present or re-created when absent.
double rib_op_ns(const core::FullTableConfig& cfg) {
  bgp::RibTable<std::uint64_t> table(bgp::RibBackendKind::kHashMap);
  sim::Rng rng(cfg.seed ^ 0x5bd1e995ULL);
  const stats::ZipfSampler zipf(cfg.prefixes, cfg.alpha);
  std::vector<bgp::Prefix> targets(cfg.events);
  for (auto& t : targets) t = static_cast<bgp::Prefix>(zipf.sample(rng));
  std::uint64_t ops = 0;
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (std::size_t p = 0; p < cfg.prefixes; ++p) {
    table.find_or_create(static_cast<bgp::Prefix>(p)) = p;
    ++ops;
  }
  for (const bgp::Prefix p : targets) {
    if (const std::uint64_t* v = table.find(p)) {
      sink += *v;
      table.erase(p);
      ops += 2;
    } else {
      table.find_or_create(p) = p;
      ops += 2;
    }
  }
  const double ns = static_cast<double>(ns_since(t0));
  if (sink == 0 && table.size() == 0) return 0.0;  // keeps the loop observable
  return ns / static_cast<double>(ops);
}

/// The assembled churn must be the simulation `run_full_table` measured.
void check_same_run(const ChurnTiming& ct, const core::FullTableResult& res,
                    const char* label, Report& rep) {
  rep.check(ct.toggles == res.toggles_applied &&
                ct.delivered == res.updates_delivered &&
                ct.peak_rib_resident == res.peak_rib_resident &&
                ct.final_rib_resident == res.final_rib_resident,
            std::string(label) + " churn (" + std::to_string(ct.toggles) +
                " toggles, " + std::to_string(ct.delivered) +
                " delivered, RIB peak " + std::to_string(ct.peak_rib_resident) +
                " final " + std::to_string(ct.final_rib_resident) +
                ") is the run_full_table run");
}

void traced(const core::FullTableConfig& cfg, const core::FullTableResult& res,
            double warmup_s, Report& rep) {
  // run_full_table keeps its damping modules private, so the traced pass is
  // the same churn assembled from the layers; its bare twin is the reference.
  auto t0 = Clock::now();
  check_same_run(churn_with_timed_damping(cfg, false), res, "bare", rep);
  const double untraced_wall_s = seconds_since(t0);
  t0 = Clock::now();
  const ChurnTiming ct = churn_with_timed_damping(cfg, true);
  const double wall = seconds_since(t0);
  check_same_run(ct, res, "traced", rep);

  // Timed intervals only: the warm-up, and the churn with cooldown, under
  // which the profile's handler time and damping's own time nest. Network
  // construction, target drawing and teardown are the unattributed rest.
  const auto& p = ct.profile;
  SpanLog spans;
  spans.add("core.warmup", ct.warmup_s);
  const int churn = spans.add("core.churn", ct.churn_s);
  const int delivery = add_handler_spans(spans, p, churn);
  spans.add("rfd.on_update", static_cast<double>(ct.hook.ns) * 1e-9, delivery);
  spans.print_ledger(wall, untraced_wall_s);

  report_profile(p, ct.churn_s, rep);
  rep.metric("rfd.on_update_ns", ct.hook.ns_per_call(), "ns");
  rep.metric("bgp.pool_high_water", static_cast<double>(ct.pool_high_water),
             "count");
  rep.metric("bgp.rib_op_ns", rib_op_ns(cfg), "ns");

  // Counters run_full_table itself returns for the measured run.
  report_counters(res.metrics, rep);
  rep.metric("bgp.rib_resident_peak",
             static_cast<double>(res.peak_rib_resident), "count");
  rep.metric("rfd.tracked_entries_peak",
             static_cast<double>(res.peak_damping_tracked), "count");
  rep.metric("core.warmup_s", warmup_s, "s");
  rep.metric("trace.unattributed_s", spans.unattributed_s(wall), "s");
  rep.metric("trace.overhead_pct", 100.0 * (wall / untraced_wall_s - 1.0),
             "%");
}

}  // namespace

void run_full_table_churn(const Options& opt, Report& rep) {
  HostSpeed& host = host_speed();
  const core::FullTableConfig cfg = make_config(opt.seed);

  // Set-up: the table warm-up alone (announce every prefix down the line and
  // converge), repeated; median reported.
  std::vector<double> setup_s;
  host.sample();
  for (int i = 0; i < 3; ++i) {
    core::FullTableConfig warm = cfg;
    warm.events = 0;
    warm.cooldown_s = 0;
    const auto t0 = Clock::now();
    const core::FullTableResult w = core::run_full_table(warm);
    setup_s.push_back(seconds_since(t0));
    rep.check(w.final_rib_resident ==
                  3 * static_cast<std::size_t>(cfg.routers) * cfg.prefixes,
              "warm-up leaves every prefix resident on every router");
  }

  std::vector<double> walls;
  std::string reference;
  core::FullTableResult first;
  const auto start = Clock::now();
  do {
    host.sample_if_due();
    const auto t0 = Clock::now();
    core::FullTableResult res = core::run_full_table(cfg);
    walls.push_back(seconds_since(t0));
    rep.attempted += cfg.events;
    if (reference.empty()) {
      reference = res.scorecard();
      check_result(cfg, res, rep);
      first = std::move(res);
    } else {
      const bool same = res.scorecard() == reference;
      rep.check(same, "run " + std::to_string(walls.size()) +
                          " reproduces the first run's scorecard");
      if (!same) rep.failed += cfg.events;
    }
  } while (seconds_since(start) < opt.seconds);
  const double wall = median(walls);
  host.sample();
  const double rss =
      static_cast<double>(peak_rss_bytes() - host.resident_bytes());
  rep.series("operation wall times (s)", walls);

  // Every retaining store must behave identically: the radix run's scorecard
  // is byte-identical to the hash run's.
  core::FullTableConfig radix = cfg;
  radix.rib_backend = bgp::RibBackendKind::kRadix;
  rep.check(core::run_full_table(radix).scorecard() == reference,
            "hash and radix scorecards are byte-identical");
  rep.fingerprint(reference);

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "full_table_churn: %zu prefixes, %llu toggles, %d routers, "
                "%zu runs; delivered %llu, final RIB %zu, peak tracked %zu",
                cfg.prefixes, static_cast<unsigned long long>(cfg.events),
                cfg.routers, walls.size(),
                static_cast<unsigned long long>(first.updates_delivered),
                first.final_rib_resident, first.peak_damping_tracked);
  rep.detail(buf);

  if (opt.trace) {
    traced(cfg, first, median(setup_s), rep);
    return;
  }
  report_end_to_end(rep, median(setup_s), wall,
                    static_cast<double>(first.updates_delivered) / wall, rss,
                    true, true);
}

}  // namespace rfdbench
