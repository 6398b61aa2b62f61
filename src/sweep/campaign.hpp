/**
 * @file
 * The campaign runner behind `gscalar sweep`: expands a SweepManifest,
 * schedules every point through the ExperimentEngine (or a gscalard
 * daemon), journals each completion (journal.hpp), streams per-point
 * JSONL plus running-percentile progress while the campaign is in
 * flight, and renders a deterministic final aggregate.
 *
 * Determinism contract: the final aggregate is computed in point-index
 * order from counters only (never wall clock), so it is byte-identical
 * at any --jobs, across daemon vs in-process scheduling, and across a
 * --resume after SIGKILL versus an uninterrupted run.
 *
 * Hardening ladder, mirroring the engine's (PR 4):
 *  - each point gets bounded retries with backoff, the retry under a
 *    fault-injection Suppress guard (sweep_point_retries);
 *  - daemon scheduling degrades permanently to the in-process engine
 *    after kDaemonDegradeThreshold consecutive submit failures, and
 *    any point the daemon cannot serve is computed locally
 *    (sweep_daemon_fallbacks) — a lost fleet slows a campaign down,
 *    it never fails one;
 *  - the sweep:point-crash fault site kills the process (SIGKILL
 *    semantics, no flushing) right after a point commits, rehearsing
 *    the resume path deterministically;
 *  - sweep:daemon-lost deterministically fails daemon submits to
 *    rehearse the degradation ladder.
 */

#ifndef GSCALAR_SWEEP_CAMPAIGN_HPP
#define GSCALAR_SWEEP_CAMPAIGN_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "obs/result.hpp"
#include "serve/protocol.hpp"
#include "manifest.hpp"

namespace gs
{

/** How `gscalar sweep` should run one campaign. */
struct SweepOptions
{
    /** Campaign root; campaigns live at `<sweepDir>/<campaign-id>/`.
     *  Empty selects defaultSweepDir(). */
    std::string sweepDir;

    /** Replay journaled points instead of truncating the journal. */
    bool resume = false;

    /** Schedule through the daemon at this unix socket when set. */
    std::string socketPath;

    /** Schedule through the daemon at this TCP target when set. */
    std::optional<ConnectTarget> tcp;

    /** Total attempts per point (1 = no retries). */
    unsigned pointAttempts = 3;

    /** Progress line cadence in completed points; 0 picks ~10 lines
     *  per campaign. */
    std::uint64_t progressEvery = 0;
};

/** Outcome of one campaign run. */
struct SweepOutcome
{
    std::uint64_t points = 0;   ///< manifest expansion size
    std::uint64_t replayed = 0; ///< answered by the journal (--resume)
    std::uint64_t computed = 0; ///< scheduled this run
    std::uint64_t failed = 0;   ///< still failing after every retry
    std::uint64_t daemonFallbacks = 0; ///< computed locally instead
    std::string campaignDir;
    SuiteResult aggregate; ///< deterministic final table

    bool ok() const { return failed == 0; }
};

/** Consecutive failed daemon submits before degrading to the
 *  in-process engine for the rest of the campaign. */
inline constexpr unsigned kDaemonDegradeThreshold = 3;

/** `$GS_SWEEP_DIR`, else `<cache dir>/sweeps`. */
std::string defaultSweepDir();

/**
 * Run @p manifest under @p opts. Creates the campaign directory,
 * writes `manifest.json` (canonical text, atomic publish), appends
 * per-point records to `results.jsonl`, and maintains
 * `journal.jsonl`. Fatal only on unusable inputs (unexpandable
 * manifest); per-point failures are carried in the outcome.
 */
SweepOutcome runSweepCampaign(const SweepManifest &manifest,
                              const SweepOptions &opts);

} // namespace gs

#endif // GSCALAR_SWEEP_CAMPAIGN_HPP
