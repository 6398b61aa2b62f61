/**
 * @file
 * One experiment per paper table/figure, behind a single registry.
 * Each experiment runs the needed simulations through an
 * ExperimentEngine and produces a SuiteResult — the ASCII table with
 * the paper's reference numbers beside the measured ones, plus the
 * structured rows and per-run counters behind it — which a ResultSink
 * renders as text, JSON or CSV. The registry is what `gscalar bench`
 * (--list/--only/--format) and the per-experiment bench binaries
 * enumerate; the legacy runX() string functions remain as thin
 * wrappers over it.
 */

#ifndef GSCALAR_HARNESS_EXPERIMENTS_HPP
#define GSCALAR_HARNESS_EXPERIMENTS_HPP

#include <string>
#include <vector>

#include "common/config.hpp"
#include "engine.hpp"
#include "obs/result.hpp"

namespace gs
{

/** Baseline GTX 480 configuration used by all experiments (Table 1). */
ArchConfig experimentConfig();

/** One registered experiment (a paper figure, table or ablation). */
struct Experiment
{
    const char *name;        ///< CLI name, e.g. "fig8"
    const char *tag;         ///< paper artefact, e.g. "Fig. 8"
    const char *driver;      ///< bench binary, e.g. "fig08_rf_distribution"
    const char *description; ///< one line for --list

    /** Simulate (through @p eng) and assemble the structured result. */
    SuiteResult (*build)(ExperimentEngine &eng, const ArchConfig &base);

    /**
     * Part of the default `gscalar bench` run (and `gscalar
     * experiment all`)? Opt-out entries — the codec micro-benchmark
     * and the codec shootout — still appear in --list and run under
     * --only/by name, but stay out of the golden reference output.
     */
    bool inDefaultRun = true;

    /** Build and hand the result to @p sink. */
    void
    run(ExperimentEngine &eng, const ArchConfig &base,
        ResultSink &sink) const
    {
        sink.emit(build(eng, base));
    }
};

/**
 * Every experiment, in bench-driver (golden reference output) order.
 * `gscalar bench` with no --only runs exactly this sequence, so its
 * text output reproduces docs/bench_reference_output.txt byte for
 * byte.
 */
const std::vector<Experiment> &experiments();

/** Registry entry by CLI name, or nullptr. */
const Experiment *findExperiment(const std::string &name);

// ---- codec experiments (src/harness/codec_experiments.cpp) ---------------

/**
 * Software encode/decode micro-benchmark: every registered codec over
 * four canonical register-value patterns (scalar, 3-byte, 2-byte,
 * random). Blob size, compression ratio and round-trip verdict are
 * deterministic; the GB/s timing columns are wall-clock and therefore
 * excluded from the default bench run (inDefaultRun = false).
 */
SuiteResult buildMicroCodec(ExperimentEngine &eng, const ArchConfig &base);

/**
 * Codec shootout: runs the full Table 2 suite once per registered
 * codec (mode GScalarFull) plus a Baseline reference, and ranks the
 * codecs on geomean compression ratio, RF+codec energy and IPC.
 * Deterministic at any --jobs level.
 */
SuiteResult buildCodecShootout(ExperimentEngine &eng,
                               const ArchConfig &base);

// ---- legacy string drivers (wrappers over the registry) ------------------
// Each runs through defaultEngine() and returns the rendered table.

/** Fig. 1: divergent / divergent-scalar instruction percentages. */
std::string runFig1(const ArchConfig &base);

/** Fig. 8: register-file access distribution by value similarity. */
std::string runFig8(const ArchConfig &base);

/** Fig. 9: instructions eligible for scalar execution, per tier. */
std::string runFig9(const ArchConfig &base);

/** Fig. 10: half-/quarter-scalar share for warp sizes 32 and 64. */
std::string runFig10(const ArchConfig &base);

/** Fig. 11: normalized IPC/W for the four architectures + IPC impact. */
std::string runFig11(const ArchConfig &base);

/** Fig. 12: normalized RF dynamic power for the four RF schemes. */
std::string runFig12(const ArchConfig &base);

/** Table 3 + §5.1 overheads from the hardware cost model. */
std::string runTable3();

/** §5.3: compression ratios (ours vs BDI) over the same streams. */
std::string runCompressionRatio(const ArchConfig &base);

/** §3.3: special-move dynamic-instruction overhead. */
std::string runSpecialMoveOverhead(const ArchConfig &base);

/** §4.1 ablation: scalar-RF bank count vs G-Scalar's BVR banklets. */
std::string runScalarBankAblation(const ArchConfig &base);

/**
 * §6 comparison: scalar coverage of a static scalarizing compiler vs
 * G-Scalar's dynamic detection (the paper reports the compiler captured
 * 24 % fewer scalar instructions on an AMD in-house workload set).
 */
std::string runCompilerScalarComparison(const ArchConfig &base);

/** §3.3 ablation: special-move overhead, hardware-only vs
 *  compiler-assisted liveness elision. */
std::string runSmovCompilerAblation(const ArchConfig &base);

/**
 * §6 ablation: what if scalar execution also compressed the multi-cycle
 * dispatch of a warp to one cycle (the performance opportunity the
 * paper attributes to scalar execution in related work)?
 */
std::string runOccupancyAblation(const ArchConfig &base);

/**
 * §3.2/§4.3 ablation: half-register compression (per-half enc/base,
 * +7 % RF area) vs whole-register encoding (+3 % RF area) — RF energy
 * and half-scalar coverage trade-off.
 */
std::string runHalfRegisterAblation(const ArchConfig &base);

/**
 * §6 related-work comparison: affine (base + lane*stride) register
 * writes vs scalar ones — the additional opportunity an affine
 * execution unit (Kim et al. [33]) would capture on top of G-Scalar.
 */
std::string runAffineOpportunity(const ArchConfig &base);

/**
 * §4.1 scaling argument: future GPUs have more register banks; the
 * prior-work single scalar bank does not scale while G-Scalar's
 * per-bank BVR arrays do. Sweeps the bank count.
 */
std::string runBankCountAblation(const ArchConfig &base);

/**
 * §4.3/§6 scaling argument: wider warps (AMD-style 64) erode full-warp
 * scalar opportunity, but half-warp scalar execution preserves the
 * benefit. Compares G-Scalar efficiency at warp 32 vs 64, with and
 * without half-warp support.
 */
std::string runWarpWidthAblation(const ArchConfig &base);

} // namespace gs

#endif // GSCALAR_HARNESS_EXPERIMENTS_HPP
