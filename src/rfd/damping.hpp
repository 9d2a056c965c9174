#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "bgp/damping_hook.hpp"
#include "bgp/observer.hpp"
#include "bgp/rib_backend.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rcn/history.hpp"
#include "rfd/params.hpp"
#include "rfd/penalty.hpp"
#include "sim/engine.hpp"

namespace rfdnet::rfd {

/// How an incoming update was classified for penalty purposes.
enum class UpdateClass : std::uint8_t {
  kInitial,         ///< first announcement ever seen on this entry (free)
  kWithdrawal,      ///< route removed: P_W
  kReannouncement,  ///< route restored after withdrawal: P_A
  kAttrChange,      ///< announcement with different attributes
  kDuplicate,       ///< no state change (free)
};

std::string to_string(UpdateClass c);

/// Per-router route flap damping (RFC 2439), one instance per router that
/// deploys damping. State lives per RIB-IN entry (peer slot, prefix).
///
/// Suppression and reuse follow the paper exactly: an update pushing the
/// penalty over the cut-off suppresses the entry and schedules a reuse event
/// at the (exact or quantized) time the penalty will have decayed to the
/// reuse threshold; further updates while suppressed keep charging the
/// penalty and push the reuse event out — the raw material of the paper's
/// timer interactions.
///
/// With `enable_rcn()`, the §6.2 filter is installed in front of the penalty:
/// only the first update carrying a given root cause is charged; updates
/// with an already-seen RC (path exploration aftershocks, route reuse
/// announcements) pass penalty-free. Updates without an RC attribute are
/// charged normally.
class DampingModule final : public bgp::DampingHook {
 public:
  /// Invoked when a reuse timer fires; returns true if the reuse changed the
  /// router's best route (a "noisy" reuse). Typically bound to
  /// `BgpRouter::on_reuse`.
  using ReuseFn = std::function<bool(int slot, bgp::Prefix)>;

  /// `peer_ids[slot]` maps slots to neighbor ids (observer reporting only).
  /// `backend` selects the per-prefix entry store; the null backend retains
  /// no state, so the module classifies updates but never charges or
  /// suppresses (pure hook overhead — benchmarking only).
  DampingModule(net::NodeId self, std::vector<net::NodeId> peer_ids,
                const DampingParams& params, sim::Engine& engine,
                ReuseFn on_reuse, bgp::Observer* observer = nullptr,
                bgp::RibBackendKind backend = bgp::RibBackendKind::kHashMap);
  ~DampingModule() override;

  DampingModule(const DampingModule&) = delete;
  DampingModule& operator=(const DampingModule&) = delete;

  /// Installs the RCN filter (paper §6.2).
  void enable_rcn(std::size_t history_capacity = 1024);
  bool rcn_enabled() const { return rcn_enabled_; }

  /// Installs *selective route flap damping* (Mao et al., SIGCOMM 2002; the
  /// prior fix §6 of the paper argues is insufficient): announcements whose
  /// relative-preference attribute marks a *degrading* route — the
  /// signature of path exploration — are not charged. Withdrawals and
  /// improving/equal announcements are charged normally, so (exactly as the
  /// paper notes) it neither catches all exploration updates nor prevents
  /// secondary charging: a reuse announcement ranks as an improvement and
  /// is charged at full price. Mutually exclusive with RCN.
  void enable_selective();
  bool selective_enabled() const { return selective_enabled_; }

  /// Ablation hook (§5.2 decomposition): ignore all penalty increments after
  /// `t`. Freezing at the end of the charging period isolates the effect of
  /// path exploration alone — no secondary charging can occur.
  void set_charge_deadline(sim::SimTime t) { charge_deadline_ = t; }

  // bgp::DampingHook:
  void on_update(int slot, const bgp::UpdateMessage& msg,
                 const std::optional<bgp::Route>& previous_route,
                 bool loop_denied) override;
  bool suppressed(int slot, bgp::Prefix p) const override;
  void reset() override;

  /// Decayed penalty value of the entry (slot, p) right now.
  double penalty(int slot, bgp::Prefix p) const;
  /// Scheduled reuse time for a suppressed entry; nullopt otherwise.
  std::optional<sim::SimTime> reuse_time(int slot, bgp::Prefix p) const;
  /// Number of currently suppressed entries on this router.
  int suppressed_count() const { return suppressed_count_; }
  /// Number of prefixes with allocated damping state. Read-only queries
  /// (`penalty`, `suppressed`, `reuse_time`) never grow this (tests).
  std::size_t tracked_entries() const { return entries_.size(); }
  /// Number of (slot, prefix) entries whose penalty state is live right now
  /// (non-zero penalty or suppressed) — what the RFC 2439 memory limit
  /// bounds. `tracked_entries` additionally counts rows kept only for their
  /// `ever_announced` flag. O(1): a count maintained at every charge, prune,
  /// reuse and reset. A stored penalty only reads 0.0 once its decay
  /// underflows (λ·age above ~700, about 10⁶ s at Cisco parameters); when
  /// the oldest stored penalty could have got there, the count is taken by
  /// an O(tracked) walk instead.
  std::size_t active_entries() const;
  /// Same count with penalty decay evaluated at an explicit instant instead
  /// of the engine clock. The telemetry probes use this: at a barrier-
  /// aligned sample instant a shard's own clock sits at its last executed
  /// event, which depends on the partition — the grid instant does not.
  std::size_t active_entries(sim::SimTime now) const;
  /// Entry store backend this module runs on.
  bgp::RibBackendKind rib_backend() const { return entries_.kind(); }

  const DampingParams& params() const { return params_; }

  /// Attaches (or detaches, with nullptr) a metrics bundle / trace sink.
  /// Typically shared across all damping modules of a network. Not owned.
  void set_metrics(obs::DampingMetrics* m) { metrics_ = m; }
  void set_trace(obs::TraceSink* t) { trace_ = t; }

  /// Attaches (or detaches) the causal span tracer: each suppression opens
  /// an `rfd.suppress` interval span (child of the update that crossed the
  /// cut-off) that the reuse firing closes, and reuse-triggered re-runs of
  /// the decision process execute under an `rfd.reuse` span. Not owned.
  void set_span_tracer(obs::SpanTracer* t) { spans_ = t; }

  /// Attaches (or detaches) the shared phase-timeline recorder fed from this
  /// module's charge / suppress / reuse events. Not owned.
  void set_phase_timeline(obs::PhaseTimeline* t) { timeline_ = t; }

  /// Audit: every penalty lies in [0, ceiling], every suppressed entry has a
  /// live reuse event scheduled at its recorded reuse time, and the
  /// suppressed and live counts match the entry flags (`active_entries` is
  /// checked against a walk of the entries). Throws
  /// `obs::InvariantViolation` on breakage; always runs.
  void check_invariants() const;

  /// Test-only back door: overwrite the stored penalty of (slot, p) with an
  /// arbitrary (possibly invalid) value stamped `now`, creating the entry if
  /// needed. Exists so tests can seed a violation for `check_invariants`.
  void debug_set_penalty(int slot, bgp::Prefix p, double value);

 private:
  struct Entry {
    PenaltyState penalty;
    bool suppressed = false;
    bool ever_announced = false;
    sim::EventId reuse_event = sim::kInvalidEvent;
    sim::SimTime reuse_at;
    /// Open `rfd.suppress` span while the entry is suppressed.
    obs::SpanContext supp_span;
  };

  /// Counted by `live_entries_`. Differs from "active at t" only for a
  /// stored penalty whose decay has underflowed to 0.0 by t.
  static bool live(const Entry& e) {
    return e.suppressed || e.penalty.raw() > 0.0;
  }
  /// Moves `live_entries_` with an entry that was `was_live` before a
  /// transition.
  void recount(bool was_live, const Entry& e) {
    if (live(e) == was_live) return;
    if (was_live) {
      --live_entries_;
    } else {
      ++live_entries_;
    }
  }
  /// Widens the underflow bounds to cover a penalty stored at `stamp`.
  void note_stored(double value, sim::SimTime stamp);
  /// The reference count: evaluates every entry's decayed penalty at `now`.
  std::size_t walk_active(sim::SimTime now) const;

  Entry& entry(int slot, bgp::Prefix p);
  Entry* find_entry(int slot, bgp::Prefix p);
  const Entry* find_entry(int slot, bgp::Prefix p) const;
  UpdateClass classify(bool ever_announced, const bgp::UpdateMessage& msg,
                       const std::optional<bgp::Route>& prev) const;
  double increment_for(UpdateClass c) const;
  /// RFC 2439 memory-limit prune: forgets the decayed penalty *and* the
  /// episode's timer freight (pending reuse wakeup, `reuse_at`, open
  /// suppression span). `ever_announced` survives on purpose — see the
  /// definition.
  void prune_decayed(Entry& e);
  void schedule_reuse(Entry& e, int slot, bgp::Prefix p);
  void fire_reuse(int slot, bgp::Prefix p);

  net::NodeId self_;
  std::vector<net::NodeId> peer_ids_;
  DampingParams params_;
  sim::Engine& engine_;
  ReuseFn reuse_fn_;
  bgp::Observer* observer_;
  obs::DampingMetrics* metrics_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  obs::SpanTracer* spans_ = nullptr;
  obs::PhaseTimeline* timeline_ = nullptr;

  bool rcn_enabled_ = false;
  bool selective_enabled_ = false;
  std::optional<sim::SimTime> charge_deadline_;
  std::vector<rcn::RootCauseHistory> rcn_history_;  // per slot

  // entries_[p] is indexed by peer slot; storage backend per `rib_backend()`.
  bgp::RibTable<std::vector<Entry>> entries_;
  int suppressed_count_ = 0;
  std::size_t live_entries_ = 0;
  // Conservative bounds over every positive penalty stored since the last
  // reset: no live entry is smaller or older, so if the smallest decays
  // from the oldest stamp without underflow, every live penalty is > 0.
  double min_stored_ = std::numeric_limits<double>::infinity();
  sim::SimTime oldest_stamp_ = sim::SimTime::max();
};

}  // namespace rfdnet::rfd
