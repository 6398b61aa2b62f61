/**
 * @file
 * Process-wide reliability counters in the EventCounts idiom: every
 * retry, timeout, quarantine and shed-load event on the hardened
 * request path bumps exactly one named counter here, and the obs
 * metric registry (obs/metrics.hpp) enumerates them all — a counter
 * added to the X-macro is exported everywhere by construction, and a
 * static_assert catches a missed registration at compile time.
 *
 * Two shapes share the X-macro: HealthCounters is the live struct of
 * atomics the hot paths bump; HealthCounts is its plain snapshot,
 * which the registry's member pointers address.
 */

#ifndef GSCALAR_FAULT_HEALTH_HPP
#define GSCALAR_FAULT_HEALTH_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace gs
{

/**
 * X-macro enumerating every reliability counter exactly once:
 * X(member, metricName, unit, doc). Single source of truth behind
 * HealthCounters, HealthCounts and the obs registry.
 */
#define GS_HEALTH_COUNT_FIELDS(X)                                            \
    X(faultsInjected, "faults_injected", "events",                           \
      "fault-injector decisions that fired")                                 \
    X(runRetries, "run_retries", "events",                                   \
      "engine runs retried after a first failure")                           \
    X(runFailures, "run_failures", "events",                                 \
      "engine runs that still failed after the retry")                       \
    X(serialFallbacks, "serial_fallbacks", "events",                         \
      "runs executed inline after worker-pool degradation")                  \
    X(clientRetries, "client_retries", "events",                             \
      "client request attempts retried with backoff")                        \
    X(clientConnectTimeouts, "client_connect_timeouts", "events",            \
      "client connects abandoned at the deadline")                           \
    X(daemonIdleCloses, "daemon_idle_closes", "events",                      \
      "connections closed by the per-connection idle timeout")               \
    X(daemonOverloads, "daemon_overloads", "events",                         \
      "connections shed with Overloaded at the connection cap")              \
    X(daemonQueueSheds, "daemon_queue_sheds", "events",                      \
      "queued requests shed with Overloaded by priority admission")          \
    X(daemonFrameRejects, "daemon_frame_rejects", "events",                  \
      "frames rejected by the max-frame-size guard")                         \
    X(cachePublishFailures, "cache_publish_failures", "events",              \
      "cache records whose atomic publish failed")                           \
    X(cacheQuarantines, "cache_quarantines", "events",                       \
      "corrupt cache records moved to quarantine")                           \
    X(rfStuckArrays, "rf_stuck_arrays", "events",                            \
      "RF SRAM arrays marked permanently stuck by rf:stuck-array")           \
    X(rfRedirectedRegisters, "rf_redirects", "events",                       \
      "registers redirected into spare capacity over stuck arrays")          \
    X(quarantineEvictions, "quarantine_evictions", "events",                 \
      "quarantined cache records evicted by the LRU byte cap")               \
    X(sweepJournalRecoveries, "sweep_journal_recoveries", "events",          \
      "corrupt sweep-journal records quarantined on load")                   \
    X(sweepPointRetries, "sweep_point_retries", "events",                    \
      "sweep points retried after a failed attempt")                         \
    X(sweepResumedPoints, "sweep_resumed_points", "events",                  \
      "sweep points replayed from the journal on --resume")                  \
    X(sweepDaemonFallbacks, "sweep_daemon_fallbacks", "events",              \
      "sweep points computed in-process after daemon submits failed")

/** Plain snapshot of the reliability counters (registry target). */
struct HealthCounts
{
#define GS_HEALTH_FIELD(member, name, unit, doc) std::uint64_t member = 0;
    GS_HEALTH_COUNT_FIELDS(GS_HEALTH_FIELD)
#undef GS_HEALTH_FIELD
};

namespace detail
{
#define GS_HEALTH_COUNT_ONE(member, name, unit, doc) +1
/** Number of lines in GS_HEALTH_COUNT_FIELDS. */
inline constexpr std::size_t kHealthFieldListCount =
    0 GS_HEALTH_COUNT_FIELDS(GS_HEALTH_COUNT_ONE);
#undef GS_HEALTH_COUNT_ONE
} // namespace detail

/** Number of HealthCounts fields; the registry must cover them all. */
inline constexpr std::size_t kHealthCountFields =
    detail::kHealthFieldListCount;

static_assert(kHealthCountFields * sizeof(std::uint64_t) ==
                  sizeof(HealthCounts),
              "GS_HEALTH_COUNT_FIELDS is out of sync with HealthCounts: "
              "register every new counter exactly once");

/** The live counters: lock-free atomics the hardened paths bump. */
struct HealthCounters
{
#define GS_HEALTH_ATOMIC(member, name, unit, doc)                            \
    std::atomic<std::uint64_t> member{0};
    GS_HEALTH_COUNT_FIELDS(GS_HEALTH_ATOMIC)
#undef GS_HEALTH_ATOMIC

    /** Point-in-time plain copy for the registry and reports. */
    HealthCounts snapshot() const;

    /** Zero every counter (tests isolate themselves with this). */
    void reset();
};

/** Process-wide instance every component bumps. */
HealthCounters &healthCounters();

/**
 * One-line report of the non-zero counters, e.g.
 * "health: run_retries 2  cache_quarantines 1"; empty string when all
 * are zero, so clean runs print nothing.
 */
std::string healthSummary();

} // namespace gs

#endif // GSCALAR_FAULT_HEALTH_HPP
