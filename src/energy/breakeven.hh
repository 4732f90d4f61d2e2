/**
 * @file
 * Breakeven idle interval, Section 3 equations (4)-(5) and Figure 4a.
 *
 * The breakeven interval N_be is the idle length at which the energy
 * of remaining in uncontrolled idle equals the energy of one sleep
 * transition plus sleeping for the same duration (eq. 4):
 *
 *   N_be * p*(alpha*k + 1-alpha)/alpha
 *     = (1-alpha)/alpha + s/alpha + N_be * k*p/alpha
 *
 * Solving (the paper omits the algebra; note alpha*k + 1-alpha - k
 * = (1-alpha)(1-k)):
 *
 *   N_be = [(1-alpha) + s] / [p * (1-alpha) * (1-k)]
 *
 * which decreases ~1/p as the paper observes, and is nearly
 * independent of alpha when s << (1-alpha) (the reason the alpha=0.1
 * and alpha=0.9 curves of Figure 4a coincide).
 */

#ifndef LSIM_ENERGY_BREAKEVEN_HH
#define LSIM_ENERGY_BREAKEVEN_HH

#include "common/types.hh"
#include "energy/model.hh"
#include "energy/params.hh"

namespace lsim::energy
{

/**
 * Closed-form breakeven idle interval (cycles, fractional) per
 * equation (5). Requires p > 0, k < 1, alpha < 1.
 */
double breakevenInterval(const ModelParams &params);

/**
 * The breakeven interval as a gradual-sleep slice count: rounded to
 * the nearest cycle (halves away from zero, as std::llround), at
 * least 1, and saturated at the largest unsigned, so a huge
 * breakeven (p near 0) cannot wrap. An infinite breakeven (sleep
 * never pays off) gives one slice.
 */
unsigned breakevenSlices(const ModelParams &params);

/**
 * The breakeven interval as a timeout: rounded like
 * breakevenSlices() and saturated at the largest Cycle. An infinite
 * breakeven maps to an effectively-never timeout, 2^20 cycles.
 */
Cycle breakevenTimeout(const ModelParams &params);

/**
 * Direct numerical solve of equation (4) using the EnergyModel's
 * per-cycle terms: smallest real N with
 * N * E_ui >= E_trans + N * E_sleep. Used to cross-validate the
 * closed form in tests.
 */
double breakevenIntervalNumeric(const EnergyModel &model);

/**
 * True when sleeping for an idle interval of @p interval cycles uses
 * no more energy than uncontrolled idle for the same interval.
 */
bool sleepPaysOff(const ModelParams &params, double interval);

} // namespace lsim::energy

#endif // LSIM_ENERGY_BREAKEVEN_HH
