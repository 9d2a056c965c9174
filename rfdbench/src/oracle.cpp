#include "oracle.hpp"

#include <algorithm>
#include <cmath>

namespace rfdbench {

IntendedOutcome intended_outcome(const Table1& p, int pulses,
                                 double interval_s) {
  const double lambda = std::log(2.0) / p.half_life_s;
  // The penalty never exceeds the level that decays to P_reuse in exactly
  // the maximum hold-down time.
  const double ceiling =
      p.reuse * std::exp(lambda * p.max_suppress_s);
  IntendedOutcome out;
  double penalty = 0.0;
  double t_last = 0.0;
  bool suppressed = false;
  for (int k = 0; k < 2 * pulses; ++k) {
    const double t = k * interval_s;
    const double decayed = penalty * std::exp(-lambda * (t - t_last));
    // A suppressed entry whose penalty decayed to P_reuse between two
    // updates was released at that crossing.
    if (suppressed && decayed < p.reuse) suppressed = false;
    const bool withdrawal = k % 2 == 0;
    penalty = std::min(ceiling, decayed + (withdrawal
                                               ? p.withdrawal_penalty
                                               : p.reannouncement_penalty));
    t_last = t;
    if (!suppressed && penalty > p.cutoff) {
      suppressed = true;
      if (out.onset_pulse == 0) out.onset_pulse = k / 2 + 1;
    }
  }
  out.penalty_at_stop = penalty;
  out.suppressed_at_stop = suppressed;
  if (suppressed) out.reuse_delay_s = std::log(penalty / p.reuse) / lambda;
  return out;
}

}  // namespace rfdbench
