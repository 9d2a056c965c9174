// The paper's §3 intended behaviour of damping, computed from the Table 1
// constants alone: the ispAS penalty recurrence under the origin's flap
// pattern, the onset of suppression and the reuse delay
// r = (1/lambda) * ln(p / P_reuse). It is written independently of the
// library's own model so that the sweeps are checked against a second
// computation.
#pragma once

namespace rfdbench {

/// Table 1 damping constants (Cisco column by default).
struct Table1 {
  double withdrawal_penalty = 1000.0;  // P_W
  double reannouncement_penalty = 0.0; // P_A
  double cutoff = 2000.0;              // P_cut
  double reuse = 750.0;                // P_reuse
  double half_life_s = 900.0;          // H
  double max_suppress_s = 3600.0;      // max hold-down
};

struct IntendedOutcome {
  bool suppressed_at_stop = false;
  /// 1-based pulse whose withdrawal first pushed the penalty over the
  /// cut-off (0 = never).
  int onset_pulse = 0;
  /// Penalty right after the final announcement.
  double penalty_at_stop = 0.0;
  /// r: seconds from the final announcement until the penalty decays to
  /// P_reuse (0 when not suppressed at the stop).
  double reuse_delay_s = 0.0;
};

/// `pulses` withdrawal/announcement pairs, every update `interval_s` after
/// the previous one, starting with a withdrawal at t = 0.
IntendedOutcome intended_outcome(const Table1& p, int pulses,
                                 double interval_s);

}  // namespace rfdbench
