/**
 * @file
 * Deterministic, seed-driven fault injection.
 *
 * Every failure domain in the serve/store tier (file writes, store
 * serialization, socket I/O, queue transitions) consults a named
 * *fault point* before doing the real work. With no
 * faults configured the consult is one relaxed atomic load — the
 * macro below short-circuits before any function call — so shipping
 * the points compiled-in costs nothing on the hot path.
 *
 * Faults are armed from a trigger-spec string (the `LSIM_FAULTS`
 * environment variable, or `lsim serve --faults`):
 *
 *     <point>[:key=value]...[,<point>...]
 *
 *     store.write:after=3:error=EIO      skip 3 hits, then always fail
 *     socket.read:every=4                fail every 4th hit
 *     store.read:count=2                 fail the first 2 hits only
 *     file.write:prob=0.25:seed=7        fail ~25% of hits, seeded
 *
 * keys:
 *     after=N   pass the first N hits (default 0)
 *     count=M   fire at most M times (default unlimited)
 *     every=N   fire on every Nth eligible hit (default 1 = all)
 *     prob=P    fire with probability P in (0,1], decided by a
 *               stateless hash of (seed, hit index) — the same seed
 *               and hit sequence always yields the same schedule
 *     seed=S    seed for prob draws (default 0)
 *     error=E   errno to surface: a symbolic name (EIO, ENOSPC,
 *               EACCES, EPIPE, ECONNRESET, EAGAIN, ETIMEDOUT) or a
 *               decimal number (default EIO)
 *
 * Sites use the macros, never detail::shouldFail directly (the
 * linter enforces both the macro-only rule and that every store /
 * serve I/O call site sits behind a point):
 *
 *     if (LSIM_FAULT("store.write"))
 *         return false;                      // injected failure
 *     int err = 0;
 *     if (LSIM_FAULT_ERRNO("file.write", &err))
 *         ... strerror(err) ...
 *
 * The registry is process-global and thread-safe; hit/fired counts
 * per point are exposed for tests and dumped into the obs registry
 * (`fault.injected` total) so chaos runs are observable.
 */

#ifndef LSIM_COMMON_FAULT_HH
#define LSIM_COMMON_FAULT_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace lsim::fault
{

namespace detail
{

/** Armed flag: set iff at least one trigger is installed. The ONLY
 * thing a fault-point site touches when injection is off. */
extern std::atomic<bool> g_armed;

/** Slow path: record a hit on @p point and decide whether it fires.
 * When it fires and @p error_code is non-null, receives the
 * configured errno. Never called unless armed. */
bool shouldFail(const char *point, int *error_code);

} // namespace detail

/** True when any trigger is installed (one relaxed load). */
inline bool
armed()
{
    return detail::g_armed.load(std::memory_order_relaxed);
}

/**
 * Install triggers from a spec string (grammar above). Additive:
 * repeated calls accumulate triggers; a point may carry several (the
 * first that fires on a hit wins). Throws std::invalid_argument on
 * grammar errors, naming the offending token.
 */
void configure(const std::string &specs);

/** configure() from $LSIM_FAULTS when set and non-empty. */
void configureFromEnv();

/** Remove every trigger and disarm; hit/fired counts clear too. */
void reset();

/** Consults recorded against @p point since the last reset().
 * Counted only while armed (the disabled path records nothing). */
std::uint64_t hits(const std::string &point);

/** Faults actually injected at @p point since the last reset(). */
std::uint64_t fired(const std::string &point);

} // namespace lsim::fault

/** Fault-point site: true when an injected fault should fail the
 * operation here. Compiles to one relaxed atomic load when off. */
#define LSIM_FAULT(point)                                           \
    (lsim::fault::armed() &&                                        \
     lsim::fault::detail::shouldFail((point), nullptr))

/** LSIM_FAULT, surfacing the trigger's errno through @p errp. */
#define LSIM_FAULT_ERRNO(point, errp)                               \
    (lsim::fault::armed() &&                                        \
     lsim::fault::detail::shouldFail((point), (errp)))

#endif // LSIM_COMMON_FAULT_HH
