/**
 * @file
 * Differential fuzzing campaigns: draw N GenSpecs from a campaign
 * seed, run every generated kernel through the cycle-level GPU (all
 * architecture modes) against the reference interpreter, and on any
 * mismatch delta-debug the kernel down to a minimal reproducer and
 * write it to the corpus directory. The campaign is deterministic end
 * to end: same seed and knobs, same kernels, same report bytes —
 * regardless of --jobs.
 */

#ifndef GSCALAR_GEN_FUZZ_HPP
#define GSCALAR_GEN_FUZZ_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "diff.hpp"
#include "spec.hpp"

namespace gs
{

/** Campaign configuration (the CLI's `gscalar fuzz` flags). */
struct FuzzOptions
{
    std::uint64_t count = 100; ///< kernels to generate and diff
    std::uint64_t seed = 1;    ///< campaign seed (drives every spec)
    DiffOptions diff;          ///< per-kernel differential knobs
    /** Corpus directory for reproducer artifacts ("" = don't write). */
    std::string corpusDir;
    /** Knobs pinned across the campaign (--knob k=v), overriding the
     *  drawn value; e.g. pin div=0 to fuzz convergent kernels only. */
    std::vector<std::pair<std::string, std::string>> knobs;
    /** Diff worker threads; 0 = the engine's worker count. */
    unsigned jobs = 0;
    /** Also submit every spec through the shared ExperimentEngine
     *  (exercising cache keying and the full harness path). */
    bool engineTraffic = true;
};

/** What a campaign did. */
struct FuzzCampaignResult
{
    std::uint64_t kernels = 0;     ///< kernels generated and diffed
    std::uint64_t miscompares = 0; ///< kernels with >= 1 failing mode
    std::uint64_t refAborts = 0;   ///< kernels the oracle gave up on
    std::vector<std::string> artifacts; ///< reproducer paths written
    /** Deterministic per-miscompare report lines (stdout material). */
    std::vector<std::string> reportLines;
    /** One-line campaign summary (stdout material). */
    std::string summaryText;

    bool clean() const { return miscompares == 0; }
};

/**
 * The i-th spec of a campaign: every knob drawn from a SplitMix64
 * stream keyed by (campaign seed, i), then the pinned knobs applied.
 * Pure function — workers and replays recompute it freely. GS_FATAL
 * when pinned knobs produce an invalid spec.
 */
GenSpec drawSpec(std::uint64_t campaignSeed, std::uint64_t index,
                 const std::vector<std::pair<std::string, std::string>>
                     &pinned = {});

/** Run a campaign. */
FuzzCampaignResult runFuzzCampaign(const FuzzOptions &opt);

/**
 * Replay one corpus artifact: re-diff its kernel under its recorded
 * mode and compare against the recorded mismatch. Returns true when
 * the exact mismatch reproduces; *detail gets a one-line account
 * either way.
 */
bool replayReproducer(const std::string &path, const DiffOptions &opt,
                      std::string *detail = nullptr);

/**
 * Strict digit-only parses in the GS_JOBS idiom: the whole string must
 * be digits, count in [1, 1000000], seed any u64. Empty optional on
 * anything else — callers reject loudly instead of defaulting.
 */
std::optional<std::uint64_t> parseCountValue(const std::string &s);
std::optional<std::uint64_t> parseSeedValue(const std::string &s);

} // namespace gs

#endif // GSCALAR_GEN_FUZZ_HPP
