#include "layers.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "bgp/config.hpp"
#include "bgp/damping_hook.hpp"
#include "bgp/network.hpp"
#include "bgp/policy.hpp"
#include "net/topology.hpp"
#include "rfd/damping.hpp"
#include "rfd/params.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "stats/zipf.hpp"

namespace rfdbench {

using namespace rfdnet;

std::uint64_t counter(const obs::Registry& r, const std::string& name) {
  obs::Registry copy = r;  // lookups are get-or-create, hence non-const
  return copy.counter(name).value();
}

void report_counters(const obs::Registry& r, Report& rep) {
  rep.metric("bgp.updates", static_cast<double>(counter(r, "bgp.sends")),
             "count");
  rep.metric("bgp.mrai_deferrals",
             static_cast<double>(counter(r, "bgp.mrai_deferrals")), "count");
  rep.metric("rfd.charges", static_cast<double>(counter(r, "rfd.charges")),
             "count");
  rep.metric("rfd.suppressions",
             static_cast<double>(counter(r, "rfd.suppressions")), "count");
  rep.metric("rfd.reuses", static_cast<double>(counter(r, "rfd.reuses")),
             "count");
}

namespace {

double handler_s(const sim::EngineProfile& p, sim::EventKind k) {
  return static_cast<double>(p.row(k).wall_ns) * 1e-9;
}

}  // namespace

void report_profile(const sim::EngineProfile& p, double busy_s, Report& rep) {
  std::uint64_t handler_ns = 0;
  std::uint64_t cancelled = 0;
  for (const auto& row : p.rows) {
    handler_ns += row.wall_ns;
    cancelled += row.cancelled;
  }
  const std::uint64_t fired = p.total_fired();
  rep.metric("sim.events", static_cast<double>(fired), "count");
  rep.metric("sim.timers_cancelled", static_cast<double>(cancelled), "count");
  rep.metric("sim.dispatch_ns",
             fired ? (busy_s * 1e9 - static_cast<double>(handler_ns)) /
                         static_cast<double>(fired)
                   : 0.0,
             "ns");
  rep.metric("bgp.delivery_s", handler_s(p, sim::EventKind::kDelivery), "s");
  rep.metric("bgp.mrai_flush_s", handler_s(p, sim::EventKind::kMraiFlush),
             "s");
  rep.metric("rfd.reuse_timer_s", handler_s(p, sim::EventKind::kReuseTimer),
             "s");
}

int add_handler_spans(SpanLog& spans, const sim::EngineProfile& p,
                      int parent) {
  const int delivery = spans.add(
      "bgp.delivery", handler_s(p, sim::EventKind::kDelivery), parent);
  spans.add("bgp.mrai_flush", handler_s(p, sim::EventKind::kMraiFlush), parent);
  spans.add("rfd.reuse_timer", handler_s(p, sim::EventKind::kReuseTimer),
            parent);
  spans.add("sim.other_handlers",
            handler_s(p, sim::EventKind::kFlap) +
                handler_s(p, sim::EventKind::kGeneric) +
                handler_s(p, sim::EventKind::kFault),
            parent);
  return delivery;
}

namespace {

/// Forwards to the router's damping module and times `on_update`.
class TimingHook final : public bgp::DampingHook {
 public:
  TimingHook(rfd::DampingModule& inner, HookTiming& timing)
      : inner_(inner), timing_(timing) {}

  void on_update(int peer_slot, const bgp::UpdateMessage& msg,
                 const std::optional<bgp::Route>& previous_route,
                 bool loop_denied) override {
    const auto t0 = Clock::now();
    inner_.on_update(peer_slot, msg, previous_route, loop_denied);
    timing_.ns += ns_since(t0);
    ++timing_.calls;
  }
  bool suppressed(int peer_slot, bgp::Prefix p) const override {
    return inner_.suppressed(peer_slot, p);
  }
  void reset() override { inner_.reset(); }

 private:
  rfd::DampingModule& inner_;
  HookTiming& timing_;
};

/// A network whose every router runs damping, behind a timing hook when
/// `timing` is set. The rng is split before the network draws from it, as
/// `core::run_full_table` does, and the split feeds the toggle stream.
struct DampedNetwork {
  DampedNetwork(const net::Graph& g, const bgp::TimingConfig& timing,
                const rfd::DampingParams& params,
                bgp::RibBackendKind backend, std::uint64_t seed,
                HookTiming* hook_timing)
      : timing_cfg(timing),
        rng(seed),
        churn_rng(rng.split()),
        network(g, timing_cfg, policy, engine, rng, nullptr, backend) {
    for (net::NodeId u = 0; u < g.node_count(); ++u) {
      bgp::BgpRouter& r = network.router(u);
      std::vector<net::NodeId> peer_ids;
      for (int s = 0; s < r.peer_count(); ++s) peer_ids.push_back(r.peer(s).id);
      modules.push_back(std::make_unique<rfd::DampingModule>(
          u, std::move(peer_ids), params, engine,
          [&r](int slot, bgp::Prefix p) { return r.on_reuse(slot, p); },
          nullptr, backend));
      if (hook_timing) {
        hooks.push_back(
            std::make_unique<TimingHook>(*modules.back(), *hook_timing));
        r.set_damping(hooks.back().get());
      } else {
        r.set_damping(modules.back().get());
      }
    }
  }
  void reset_damping() {
    for (auto& m : modules) m->reset();
  }

  bgp::TimingConfig timing_cfg;
  bgp::ShortestPathPolicy policy;
  sim::Engine engine;
  sim::Rng rng;
  sim::Rng churn_rng;
  bgp::BgpNetwork network;
  std::vector<std::unique_ptr<rfd::DampingModule>> modules;
  std::vector<std::unique_ptr<TimingHook>> hooks;
};

}  // namespace

HookTiming flap_with_timed_damping(const net::Graph& g, int pulses) {
  HookTiming timing;
  DampedNetwork dn(g, bgp::TimingConfig{}, rfd::DampingParams::cisco(),
                   bgp::RibBackendKind::kHashMap, 1, &timing);
  bgp::BgpRouter& origin = dn.network.router(0);
  origin.originate(0);
  dn.engine.run();
  dn.reset_damping();
  const sim::SimTime t0 = dn.engine.now();
  for (int k = 0; k < 2 * pulses; ++k) {
    const bool withdraw = k % 2 == 0;
    dn.engine.schedule_at(
        t0 + sim::Duration::seconds(60.0 * k),
        [&origin, withdraw] {
          if (withdraw) {
            origin.withdraw_origin(0);
          } else {
            origin.originate(0);
          }
        },
        sim::EventKind::kFlap);
  }
  dn.engine.run();
  return timing;
}

ChurnTiming churn_with_timed_damping(const core::FullTableConfig& cfg,
                                     bool traced) {
  ChurnTiming out;
  const net::Graph g = net::make_line(cfg.routers, cfg.link_delay_s);
  DampedNetwork dn(g, cfg.timing, *cfg.damping, cfg.rib_backend, cfg.seed,
                   traced ? &out.hook : nullptr);
  bgp::BgpRouter& origin = dn.network.router(0);
  auto t0 = Clock::now();
  for (std::size_t p = 0; p < cfg.prefixes; ++p) {
    origin.originate(static_cast<bgp::Prefix>(p));
  }
  dn.engine.run();
  dn.reset_damping();
  out.warmup_s = seconds_since(t0);
  out.hook = HookTiming{};

  const stats::ZipfSampler zipf(cfg.prefixes, cfg.alpha);
  std::vector<bgp::Prefix> targets(cfg.events);
  for (auto& t : targets) {
    t = static_cast<bgp::Prefix>(zipf.sample(dn.churn_rng));
  }
  std::vector<bool> up(cfg.prefixes, true);
  const auto sample_residency = [&] {
    std::size_t rib = 0;
    for (net::NodeId u = 0; u < g.node_count(); ++u) {
      dn.network.router(u).sweep_reclaim();
      rib += dn.network.router(u).residency().total();
    }
    out.peak_rib_resident = std::max(out.peak_rib_resident, rib);
    out.final_rib_resident = rib;
  };
  const std::uint64_t sample_every =
      cfg.events == 0 ? 1 : std::max<std::uint64_t>(1, cfg.events / cfg.samples);
  std::function<void()> step = [&] {
    const bgp::Prefix p = targets[out.toggles];
    if (up[p]) {
      origin.withdraw_origin(p);
    } else {
      origin.originate(p);
    }
    up[p] = !up[p];
    ++out.toggles;
    if (out.toggles % sample_every == 0) sample_residency();
    if (out.toggles < cfg.events) {
      dn.engine.schedule_after(sim::Duration::seconds(cfg.event_interval_s),
                               step, sim::EventKind::kFlap);
    }
  };

  if (traced) dn.engine.set_profile(&out.profile);
  t0 = Clock::now();
  const sim::SimTime start = dn.engine.now();
  const std::uint64_t delivered_before = dn.network.delivered_count();
  const double churn_span_s =
      static_cast<double>(cfg.events) * cfg.event_interval_s;
  if (cfg.events > 0) {
    dn.engine.schedule_after(sim::Duration::seconds(cfg.event_interval_s), step,
                             sim::EventKind::kFlap);
  }
  dn.engine.run(start + sim::Duration::seconds(churn_span_s));
  dn.engine.run(start + sim::Duration::seconds(churn_span_s + cfg.cooldown_s));
  out.churn_s = seconds_since(t0);
  dn.engine.set_profile(nullptr);
  sample_residency();
  out.delivered = dn.network.delivered_count() - delivered_before;
  out.pool_high_water = dn.network.message_pool().stats().high_water;
  return out;
}

}  // namespace rfdbench
