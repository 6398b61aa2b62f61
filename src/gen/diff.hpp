/**
 * @file
 * Differential execution of one generated kernel: the cycle-level GPU
 * in every architecture mode against the per-thread reference
 * interpreter, comparing the full output region word by word. A
 * mismatch is the fuzzer's bug signal; the reference aborting (step
 * budget exhausted) marks a kernel the campaign must skip, not a bug.
 */

#ifndef GSCALAR_GEN_DIFF_HPP
#define GSCALAR_GEN_DIFF_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/arch_mode.hpp"
#include "isa/kernel.hpp"

#include "spec.hpp"

namespace gs
{

/** Knobs of one differential run. */
struct DiffOptions
{
    /** Architecture modes to run; default is all six. */
    std::vector<ArchMode> modes{kArchModes.begin(), kArchModes.end()};
    unsigned numSms = 2;
    /** Cycle-sim watchdog per mode (partial results past this). */
    std::uint64_t maxCycles = 20'000'000;
    /** Reference-interpreter step budget (0 = unbounded). */
    std::uint64_t maxRefSteps = 200'000'000;
};

/** One differing output word. */
struct DiffMismatch
{
    ArchMode mode = ArchMode::Baseline;
    std::uint64_t index = 0; ///< word index into the output region
    std::uint32_t want = 0;  ///< reference value
    std::uint32_t got = 0;   ///< cycle-sim value
    bool injected = false;   ///< true when the gen:miscompare fault fired
};

/** Result of diffing one kernel across the requested modes. */
struct DiffOutcome
{
    /** Reference ran out of steps; no comparison was possible. */
    bool refAborted = false;
    /** First mismatch per failing mode (empty = all modes agree). */
    std::vector<DiffMismatch> mismatches;

    bool clean() const { return !refAborted && mismatches.empty(); }
};

/**
 * Run @p kernel (described by @p spec, which supplies input data and
 * launch geometry) through the reference interpreter once and the
 * cycle-level GPU in every requested mode, comparing the full output
 * region. The kernel need not be generateKernel(spec) — the minimizer
 * diffs mutated kernels under the original spec's data and geometry.
 */
DiffOutcome diffKernel(const Kernel &kernel, const GenSpec &spec,
                       const DiffOptions &opt = {});

/**
 * Diff against a single mode; the minimizer's predicate. Returns true
 * when the mode MIScompares (or the reference aborts — a candidate
 * that stops terminating is not a simpler reproducer).
 */
bool diffOneMode(const Kernel &kernel, const GenSpec &spec, ArchMode mode,
                 const DiffOptions &opt, DiffMismatch *first = nullptr);

/** One-line human rendering ("mode=gscalar word 17: want 3 got 4"). */
std::string describeMismatch(const DiffMismatch &m);

} // namespace gs

#endif // GSCALAR_GEN_DIFF_HPP
