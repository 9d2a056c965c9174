// Property test for DampingModule::active_entries: the maintained O(1) count
// must equal a brute-force count of live entries at every instant a caller
// may ask about, on every retaining store, through random sequences of
// charges, prunes, suppressions, reuses, resets and forced penalties.
// Includes instants so far ahead that every stored penalty has decayed to
// 0.0, where only the walk fallback gives the right answer.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "rfd/damping.hpp"
#include "sim/random.hpp"

namespace rfdnet::rfd {
namespace {

using bgp::Route;
using bgp::UpdateMessage;
using sim::Duration;
using sim::SimTime;

// Spread across radix branches and leaves.
const std::vector<bgp::Prefix> kPrefixes = {0u, 1u, 256u, 0x01020304u,
                                            0xffffffffu};
constexpr int kSlots = 2;

class ActiveCountProperty
    : public ::testing::TestWithParam<
          std::tuple<bgp::RibBackendKind, std::uint64_t>> {};

TEST_P(ActiveCountProperty, MaintainedCountMatchesBruteForce) {
  const auto [backend, seed] = GetParam();
  sim::Rng rng(seed);
  const DampingParams params = DampingParams::cisco();
  sim::Engine engine;
  DampingModule module(0, {1, 2}, params, engine,
                       [](int, bgp::Prefix) { return false; }, nullptr,
                       backend);

  // Previous route per (slot, prefix), as the router would pass it.
  std::vector<std::optional<Route>> prev(kSlots * kPrefixes.size());
  const auto prev_of = [&](int slot, std::size_t pi) -> std::optional<Route>& {
    return prev[static_cast<std::size_t>(slot) * kPrefixes.size() + pi];
  };

  // Ground truth from the public per-entry queries: suppressed, or the
  // penalty read now still positive once decayed on to `t`.
  const auto brute_force = [&](SimTime t) {
    const double decay =
        std::exp(-params.lambda() * (t - engine.now()).as_seconds());
    std::size_t live = 0;
    for (int s = 0; s < kSlots; ++s) {
      for (const bgp::Prefix p : kPrefixes) {
        if (module.suppressed(s, p) || module.penalty(s, p) * decay > 0.0) {
          ++live;
        }
      }
    }
    return live;
  };

  // Instants at and after `now`. The last lies ~4e6 s ahead: λ·age > 3000,
  // so every stored penalty reads 0.0 there and only suppressed entries
  // remain active.
  const std::vector<double> ahead_s = {0.0, 1.0, 900.0, 1e5, 4e6};
  int count_alone_wrong = 0;
  int suppressions_seen = 0;
  int resets = 0;

  for (int step = 0; step < 600; ++step) {
    // Mostly bursts; sometimes a gap long enough for reuse timers to fire
    // and for the next charge to prune a decayed episode.
    const double gap = rng.bernoulli(0.15) ? rng.uniform(600.0, 8000.0)
                                           : rng.uniform(0.01, 5.0);
    const SimTime target = engine.now() + Duration::seconds(gap);
    engine.schedule_at(target, [] {});
    while (engine.now() < target && engine.step()) {
    }

    int slot = static_cast<int>(rng.uniform_index(kSlots));
    std::size_t pi = rng.uniform_index(kPrefixes.size());
    const double op = rng.uniform01();
    if (op < 0.03) {
      module.reset();
      ++resets;
    } else if (op < 0.12) {
      // Forced penalties, zero included: a forced 0.0 takes an entry out of
      // the live set unless it is suppressed, and then its reuse does. Half
      // of them go to a suppressed entry when there is one.
      if (rng.bernoulli(0.5)) {
        for (std::size_t i = 0; i < kSlots * kPrefixes.size(); ++i) {
          const int s = static_cast<int>(i % kSlots);
          if (module.suppressed(s, kPrefixes[i / kSlots])) {
            slot = s;
            pi = i / kSlots;
            break;
          }
        }
      }
      const double value =
          rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, params.ceiling());
      module.debug_set_penalty(slot, kPrefixes[pi], value);
    } else {
      const bgp::Prefix p = kPrefixes[pi];
      UpdateMessage msg = UpdateMessage::withdraw(p);
      if (rng.bernoulli(0.55)) {
        const auto origin =
            static_cast<net::NodeId>(rng.uniform_index(4) + 10);
        msg = UpdateMessage::announce(p, Route{bgp::AsPath::origin(origin), 100});
      }
      module.on_update(slot, msg, prev_of(slot, pi), false);
      prev_of(slot, pi) = msg.route;
    }
    suppressions_seen += module.suppressed_count() > 0 ? 1 : 0;

    ASSERT_NO_THROW(module.check_invariants()) << "step " << step;
    for (const double dt : ahead_s) {
      const SimTime t = engine.now() + Duration::seconds(dt);
      ASSERT_EQ(module.active_entries(t), brute_force(t))
          << "step " << step << ", t = now + " << dt << " s";
    }
    EXPECT_EQ(module.active_entries(), brute_force(engine.now()));
    if (brute_force(engine.now() + Duration::seconds(ahead_s.back())) <
        brute_force(engine.now())) {
      ++count_alone_wrong;
    }
  }
  // The sequence reached every transition the count follows, and the far
  // instant really needed the fallback walk.
  EXPECT_GT(suppressions_seen, 0);
  EXPECT_GT(resets, 0);
  EXPECT_GT(count_alone_wrong, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Stores, ActiveCountProperty,
    ::testing::Combine(::testing::Values(bgp::RibBackendKind::kHashMap,
                                         bgp::RibBackendKind::kRadix),
                       ::testing::Values(1u, 2u, 3u, 4u)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace rfdnet::rfd
