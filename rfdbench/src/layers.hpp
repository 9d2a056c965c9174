// Per-layer measurement for the traced mode: the layer metrics read from the
// counters and the engine profile `core`'s entry points return, and simulations
// assembled from the layers' public APIs (engine, BGP network, damping
// modules). In the assembled simulations each router's `rfd::DampingModule`
// sits behind a timing `bgp::DampingHook`, so damping's per-update work (RCN
// filtering included) is timed at the rfd layer boundary, which `core`'s
// entry points do not expose.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "bench.hpp"
#include "core/full_table.hpp"
#include "net/graph.hpp"
#include "obs/metrics.hpp"
#include "sim/profile.hpp"

namespace rfdbench {

std::uint64_t counter(const rfdnet::obs::Registry& r, const std::string& name);

/// bgp.updates, bgp.mrai_deferrals and the rfd charge/suppress/reuse counts
/// from a run's obs registry.
void report_counters(const rfdnet::obs::Registry& r, Report& rep);

/// sim.events, sim.timers_cancelled, sim.dispatch_ns (busy time outside the
/// event handlers, per fired event) and the handler time of deliveries, MRAI
/// flushes and reuse timers, from an engine profile.
void report_profile(const rfdnet::sim::EngineProfile& p, double busy_s,
                    Report& rep);

/// Child spans of `parent` for the profile's handler time by event kind.
/// Returns the delivery span, under which damping's own span nests.
int add_handler_spans(SpanLog& spans, const rfdnet::sim::EngineProfile& p,
                      int parent);

struct HookTiming {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
  double ns_per_call() const {
    return calls ? static_cast<double>(ns) / static_cast<double>(calls) : 0.0;
  }
};

/// Router 0 of `g` flaps prefix 0 `pulses` times (withdrawal, then
/// re-announcement 60 s later), every router running Cisco damping.
HookTiming flap_with_timed_damping(const rfdnet::net::Graph& g, int pulses);

struct ChurnTiming {
  HookTiming hook;  ///< churn and cooldown only, like `profile`
  rfdnet::sim::EngineProfile profile;
  std::size_t pool_high_water = 0;
  std::uint64_t toggles = 0;
  std::uint64_t delivered = 0;
  std::size_t peak_rib_resident = 0;
  std::size_t final_rib_resident = 0;
  double warmup_s = 0.0;  ///< wall time of the warm-up convergence
  double churn_s = 0.0;   ///< wall time of the churn and cooldown runs
};

/// The simulation of `core::run_full_table(cfg)` (serial, damped), assembled
/// from the layers: the same rng split, pre-drawn toggle targets, toggle
/// spacing, residency sweeps and cooldown, so its delivered count and
/// residency equal the library run's. With `traced`, the engine profile is
/// attached for the churn and cooldown and the damping modules sit behind
/// the timing hook; without, the same simulation runs bare, as the reference
/// for the tracing overhead.
ChurnTiming churn_with_timed_damping(const rfdnet::core::FullTableConfig& cfg,
                                     bool traced);

}  // namespace rfdbench
