#include "rfd/damping.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/invariant.hpp"

namespace rfdnet::rfd {

std::string to_string(UpdateClass c) {
  switch (c) {
    case UpdateClass::kInitial:
      return "initial";
    case UpdateClass::kWithdrawal:
      return "withdrawal";
    case UpdateClass::kReannouncement:
      return "reannouncement";
    case UpdateClass::kAttrChange:
      return "attr-change";
    case UpdateClass::kDuplicate:
      return "duplicate";
  }
  return "?";
}

DampingModule::DampingModule(net::NodeId self, std::vector<net::NodeId> peer_ids,
                             const DampingParams& params, sim::Engine& engine,
                             ReuseFn on_reuse, bgp::Observer* observer,
                             bgp::RibBackendKind backend)
    : self_(self),
      peer_ids_(std::move(peer_ids)),
      params_(params),
      engine_(engine),
      reuse_fn_(std::move(on_reuse)),
      observer_(observer),
      entries_(backend) {
  params_.validate();
  if (!reuse_fn_) throw std::invalid_argument("DampingModule: empty reuse fn");
}

DampingModule::~DampingModule() {
  // Cancel outstanding reuse events: their callbacks capture `this`.
  // Ordered so the engine sees the same cancel sequence on every backend.
  entries_.for_each_ordered([&](bgp::Prefix, std::vector<Entry>& entries) {
    for (auto& e : entries) {
      if (e.reuse_event != sim::kInvalidEvent) engine_.cancel(e.reuse_event);
    }
  });
}

void DampingModule::enable_selective() {
  if (rcn_enabled_) {
    throw std::logic_error("DampingModule: selective and RCN are exclusive");
  }
  selective_enabled_ = true;
}

void DampingModule::enable_rcn(std::size_t history_capacity) {
  if (selective_enabled_) {
    throw std::logic_error("DampingModule: selective and RCN are exclusive");
  }
  rcn_enabled_ = true;
  rcn_history_.clear();
  rcn_history_.reserve(peer_ids_.size());
  for (std::size_t i = 0; i < peer_ids_.size(); ++i) {
    rcn_history_.emplace_back(history_capacity);
  }
}

DampingModule::Entry& DampingModule::entry(int slot, bgp::Prefix p) {
  auto& v = entries_.find_or_create(p);
  if (v.empty()) v.resize(peer_ids_.size());
  return v.at(slot);
}

DampingModule::Entry* DampingModule::find_entry(int slot, bgp::Prefix p) {
  auto* v = entries_.find(p);
  if (v == nullptr || v->empty()) return nullptr;
  return &v->at(slot);
}

const DampingModule::Entry* DampingModule::find_entry(int slot,
                                                      bgp::Prefix p) const {
  const auto* v = entries_.find(p);
  if (v == nullptr || v->empty()) return nullptr;
  return &v->at(slot);
}

UpdateClass DampingModule::classify(
    bool ever_announced, const bgp::UpdateMessage& msg,
    const std::optional<bgp::Route>& prev) const {
  if (msg.is_withdrawal()) {
    return prev ? UpdateClass::kWithdrawal : UpdateClass::kDuplicate;
  }
  if (!prev) {
    return ever_announced ? UpdateClass::kReannouncement
                          : UpdateClass::kInitial;
  }
  return (*prev == *msg.route) ? UpdateClass::kDuplicate
                               : UpdateClass::kAttrChange;
}

double DampingModule::increment_for(UpdateClass c) const {
  switch (c) {
    case UpdateClass::kWithdrawal:
      return params_.withdrawal_penalty;
    case UpdateClass::kReannouncement:
      return params_.reannouncement_penalty;
    case UpdateClass::kAttrChange:
      return params_.attr_change_penalty;
    case UpdateClass::kInitial:
    case UpdateClass::kDuplicate:
      return 0.0;
  }
  return 0.0;
}

void DampingModule::on_update(int slot, const bgp::UpdateMessage& msg,
                              const std::optional<bgp::Route>& prev,
                              bool loop_denied) {
  // The null backend retains nothing: charging a scratch entry would strand
  // the suppressed count and the reuse timer it implies, so the module is a
  // pass-through (every query below reads "no state").
  if (!entries_.retains()) return;
  const sim::SimTime now = engine_.now();
  const double lambda = params_.lambda();
  Entry* e = find_entry(slot, msg.prefix);

  // A present previous route proves this entry has been announced before,
  // even if the announcement predates this module's state (e.g. a reset).
  const bool ever_announced = prev.has_value() || (e && e->ever_announced);
  const UpdateClass cls = classify(ever_announced, msg, prev);

  double inc = increment_for(cls);
  if (loop_denied && !params_.charge_loop_denied) inc = 0.0;
  if (charge_deadline_ && now > *charge_deadline_) inc = 0.0;

  // Selective damping: a degrading announcement is presumed to be path
  // exploration and passes penalty-free.
  if (selective_enabled_ && msg.is_announcement() &&
      msg.rel_pref == bgp::RelPref::kWorse) {
    inc = 0.0;
  }

  // RCN filter (§6.2): only the first update carrying a fresh root cause is
  // charged, and the penalty follows the *flap itself* rather than the
  // perceived update (§7): a link-down root cause costs the withdrawal
  // penalty, a link-up one the re-announcement penalty — exactly what the
  // router adjacent to the flapping link would apply. Updates lacking the
  // attribute fall through to normal damping. The history is consulted only
  // for updates that would otherwise be charged: a free update (duplicate,
  // loop-denied, past the charge deadline) must not consume the RC's first
  // sighting, or the one genuinely chargeable update carrying it later would
  // pass free too.
  if (rcn_enabled_ && msg.rc && inc > 0.0) {
    const bool first_sighting = rcn_history_.at(slot).record(*msg.rc);
    inc = first_sighting ? (msg.rc->up ? params_.reannouncement_penalty
                                       : params_.withdrawal_penalty)
                         : 0.0;
  }

  // Allocate state lazily: only an update that charges penalty or flips
  // `ever_announced` has anything to remember. A withdrawal for a prefix we
  // never tracked (and with no previous route) is a pure no-op and must not
  // grow `entries_`.
  const bool marks_announced = prev.has_value() || msg.is_announcement();
  if (inc <= 0.0 && e == nullptr && !marks_announced) return;
  if (e == nullptr) e = &entry(slot, msg.prefix);
  if (marks_announced) e->ever_announced = true;
  if (inc <= 0.0) return;
  const bool was_live = live(*e);

  // RFC 2439 memory limit: an unsuppressed penalty that has decayed below
  // half the reuse threshold is no longer tracked.
  if (!e->suppressed && e->penalty.at(now, lambda) < params_.reuse / 2.0) {
    prune_decayed(*e);
  }

  e->penalty.add(inc, now, lambda, params_.ceiling());
  note_stored(e->penalty.raw(), now);
  recount(was_live, *e);
  const double value = e->penalty.at(now, lambda);
  RFDNET_INVARIANT(value >= 0.0 && value <= params_.ceiling(),
                   "rfd: charged penalty outside [0, ceiling]");
  if (metrics_) {
    metrics_->charges->inc();
    // Logical bundles (bind_logical) leave the penalty histogram null — it
    // sums doubles in observation order, which is partition-dependent.
    if (metrics_->penalty) metrics_->penalty->observe(value);
  }
  if (observer_) {
    observer_->on_penalty(self_, peer_ids_.at(slot), msg.prefix, value, now);
  }
  if (timeline_) {
    // The recorder's own state machine keeps a suppressed entry suppressed
    // (secondary charging), so every applied charge is reported.
    timeline_->on_charge(now.as_seconds(), self_, peer_ids_.at(slot),
                         msg.prefix);
  }

  if (!e->suppressed && value > params_.cutoff) {
    e->suppressed = true;
    ++suppressed_count_;
    if (metrics_) metrics_->suppressions->inc();
    if (trace_) {
      trace_->rfd_suppress(now.as_seconds(), self_, peer_ids_.at(slot),
                           msg.prefix, value);
    }
    if (spans_) {
      // Child of the update that crossed the cut-off (the active context
      // while the router processes a delivered update).
      e->supp_span =
          spans_->child(spans_->active(), "rfd.suppress", now.as_seconds(),
                        self_, peer_ids_.at(slot), msg.prefix);
    }
    if (timeline_) {
      timeline_->on_suppress(now.as_seconds(), self_, peer_ids_.at(slot),
                             msg.prefix);
    }
    if (observer_) {
      observer_->on_suppress(self_, peer_ids_.at(slot), msg.prefix, value, now);
    }
    schedule_reuse(*e, slot, msg.prefix);
  } else if (e->suppressed) {
    // The penalty grew, so the reuse crossing moved out: reschedule.
    schedule_reuse(*e, slot, msg.prefix);
  }
}

void DampingModule::prune_decayed(Entry& e) {
  // The memory limit forgets the whole damping episode, not just the decayed
  // penalty value: a reuse wakeup left scheduled would fire into the *next*
  // suppression episode, and a stale `reuse_at` would let `reuse_time()`
  // report a reuse instant for state that no longer exists. `ever_announced`
  // deliberately survives — the limit forgets penalty history, not whether
  // the prefix was ever reachable; dropping it would reclassify the next
  // announcement as initial and change what gets charged.
  if (e.reuse_event != sim::kInvalidEvent) {
    engine_.cancel(e.reuse_event);
    e.reuse_event = sim::kInvalidEvent;
  }
  if (spans_ && e.supp_span.valid()) {
    spans_->close(e.supp_span, engine_.now().as_seconds());
  }
  e.supp_span = obs::SpanContext{};
  e.reuse_at = sim::SimTime::zero();
  e.penalty.reset();
}

void DampingModule::schedule_reuse(Entry& e, int slot, bgp::Prefix p) {
  const sim::SimTime now = engine_.now();
  sim::Duration wait =
      e.penalty.time_to_reach(params_.reuse, now, params_.lambda());
  if (params_.reuse_granularity_s > 0) {
    const auto g = sim::Duration::seconds(params_.reuse_granularity_s);
    // At least one full period: a penalty sitting exactly at (or rounding
    // to) the reuse boundary must not release at `now` — the quantized
    // timer's contract is "never early, on the grid".
    const auto periods = std::max<std::int64_t>(
        1, (wait.as_micros() + g.as_micros() - 1) / g.as_micros());
    wait = g * periods;
  }
  const sim::SimTime when = now + wait;
  if (e.reuse_event != sim::kInvalidEvent) {
    if (when == e.reuse_at) return;  // unchanged; keep the existing event
    engine_.cancel(e.reuse_event);
    if (metrics_) metrics_->reschedules->inc();
  }
  e.reuse_at = when;
  e.reuse_event = engine_.schedule_at(
      when, [this, slot, p] { fire_reuse(slot, p); },
      sim::EventKind::kReuseTimer);
}

void DampingModule::fire_reuse(int slot, bgp::Prefix p) {
  // The timer was scheduled from a live entry; look it up without creating
  // (the entry may be gone after a reset raced with an in-flight event).
  Entry* found = find_entry(slot, p);
  if (found == nullptr) return;
  Entry& e = *found;
  e.reuse_event = sim::kInvalidEvent;
  if (!e.suppressed) return;
  e.suppressed = false;
  --suppressed_count_;
  recount(true, e);
  obs::SpanContext reuse_sc;
  if (spans_) {
    const double t = engine_.now().as_seconds();
    spans_->close(e.supp_span, t);
    reuse_sc = spans_->child_instant(e.supp_span, "rfd.reuse", t, self_,
                                     peer_ids_.at(slot), p);
    e.supp_span = obs::SpanContext{};
  }
  if (timeline_) {
    timeline_->on_reuse(engine_.now().as_seconds(), self_, peer_ids_.at(slot),
                        p);
  }
  // Run the re-advertisement under the reuse span: the updates it triggers
  // (the paper's "route reuse announcements") parent on it.
  const obs::ActiveSpan span_guard(spans_, reuse_sc);
  const bool noisy = reuse_fn_(slot, p);
  if (metrics_) metrics_->reuses->inc();
  if (trace_) {
    trace_->rfd_reuse(engine_.now().as_seconds(), self_, peer_ids_.at(slot), p,
                      noisy);
  }
  if (observer_) {
    observer_->on_reuse(self_, peer_ids_.at(slot), p, noisy, engine_.now());
  }
}

bool DampingModule::suppressed(int slot, bgp::Prefix p) const {
  const Entry* e = find_entry(slot, p);
  return e != nullptr && e->suppressed;
}

void DampingModule::reset() {
  // Ordered: span closes emit trace records, whose order must not depend on
  // the storage backend.
  entries_.for_each_ordered([&](bgp::Prefix, std::vector<Entry>& entries) {
    for (auto& e : entries) {
      if (e.reuse_event != sim::kInvalidEvent) engine_.cancel(e.reuse_event);
      if (spans_ && e.supp_span.valid()) {
        spans_->close(e.supp_span, engine_.now().as_seconds());
      }
    }
  });
  entries_.clear();
  suppressed_count_ = 0;
  live_entries_ = 0;
  min_stored_ = std::numeric_limits<double>::infinity();
  oldest_stamp_ = sim::SimTime::max();
  for (auto& h : rcn_history_) h.clear();
}

double DampingModule::penalty(int slot, bgp::Prefix p) const {
  const Entry* e = find_entry(slot, p);
  return e ? e->penalty.at(engine_.now(), params_.lambda()) : 0.0;
}

std::optional<sim::SimTime> DampingModule::reuse_time(int slot,
                                                      bgp::Prefix p) const {
  const Entry* e = find_entry(slot, p);
  if (!e || !e->suppressed) return std::nullopt;
  return e->reuse_at;
}

std::size_t DampingModule::active_entries() const {
  return active_entries(engine_.now());
}

std::size_t DampingModule::active_entries(sim::SimTime now) const {
  if (live_entries_ == 0) return 0;
  // Every live penalty is at least min_stored_ and no older than
  // oldest_stamp_; the check is written so that a NaN (an infinite forced
  // penalty times a zero decay factor) also takes the walk.
  const double age_s = (now - oldest_stamp_).as_seconds();
  const double smallest = min_stored_ * std::exp(-params_.lambda() * age_s);
  if (smallest >= std::numeric_limits<double>::min()) return live_entries_;
  return walk_active(now);
}

std::size_t DampingModule::walk_active(sim::SimTime now) const {
  const double lambda = params_.lambda();
  std::size_t active = 0;
  entries_.for_each([&](bgp::Prefix, const std::vector<Entry>& entries) {
    for (const Entry& e : entries) {
      if (e.suppressed || e.penalty.at(now, lambda) > 0.0) ++active;
    }
  });
  return active;
}

void DampingModule::note_stored(double value, sim::SimTime stamp) {
  if (!(value > 0.0)) return;
  min_stored_ = std::min(min_stored_, value);
  oldest_stamp_ = std::min(oldest_stamp_, stamp);
}

void DampingModule::check_invariants() const {
  const sim::SimTime now = engine_.now();
  const double lambda = params_.lambda();
  int suppressed = 0;
  std::size_t live_count = 0;
  entries_.for_each([&](bgp::Prefix, const std::vector<Entry>& entries) {
    for (const Entry& e : entries) {
      if (live(e)) ++live_count;
      const double value = e.penalty.at(now, lambda);
      obs::check_always(value >= 0.0, "rfd: negative penalty");
      obs::check_always(value <= params_.ceiling(),
                        "rfd: penalty above ceiling");
      if (e.suppressed) {
        ++suppressed;
        obs::check_always(e.reuse_event != sim::kInvalidEvent,
                          "rfd: suppressed entry without a reuse timer");
        obs::check_always(engine_.is_pending(e.reuse_event),
                          "rfd: suppressed entry's reuse timer is stale");
      } else {
        // Converse: only a suppressed entry may hold a live reuse wakeup.
        // A pruned (or reused) entry with a timer still scheduled would fire
        // into a later suppression episode.
        obs::check_always(e.reuse_event == sim::kInvalidEvent,
                          "rfd: unsuppressed entry holds a live reuse timer");
      }
    }
  });
  obs::check_always(suppressed == suppressed_count_,
                    "rfd: suppressed count out of sync with entries");
  obs::check_always(live_count == live_entries_,
                    "rfd: live count out of sync with entries");
  obs::check_always(active_entries(now) == walk_active(now),
                    "rfd: active-entry count disagrees with the entry walk");
}

void DampingModule::debug_set_penalty(int slot, bgp::Prefix p, double value) {
  Entry& e = entry(slot, p);
  const bool was_live = live(e);
  e.penalty.force(value, engine_.now());
  note_stored(value, engine_.now());
  recount(was_live, e);
}

}  // namespace rfdnet::rfd
