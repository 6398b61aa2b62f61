#include "fuzz.hpp"

#include <algorithm>
#include <mutex>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "harness/engine.hpp"

#include "artifact.hpp"
#include "generator.hpp"
#include "minimize.hpp"

namespace gs
{

namespace
{

/** SplitMix64 mixing step (decorrelates campaign seed and index). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Probes the minimizer spends per reproducer before settling. */
constexpr std::uint64_t kMinimizeProbeBudget = 2000;

} // namespace

GenSpec
drawSpec(std::uint64_t campaignSeed, std::uint64_t index,
         const std::vector<std::pair<std::string, std::string>> &pinned)
{
    Rng rng(mix64(campaignSeed ^ mix64(index + 1)));
    GenSpec spec;
    spec.seed = rng.next64();
    spec.ops = std::uint32_t(8 + rng.below(41));    // 8..48
    spec.ctas = std::uint32_t(1 + rng.below(3));    // 1..3
    spec.tpc = std::uint32_t(16 + rng.below(113));  // 16..128
    spec.div = std::uint32_t(rng.below(61));
    spec.pred = std::uint32_t(rng.below(41));
    spec.scalar = std::uint32_t(rng.below(61));
    spec.affine =
        std::uint32_t(rng.below(std::min<std::uint64_t>(
                          61, 101 - spec.scalar)));
    spec.stride = std::uint32_t(1 + rng.below(4));
    spec.ind = std::uint32_t(rng.below(41));
    spec.sfu = std::uint32_t(rng.below(41));
    spec.shared = std::uint32_t(rng.below(31));

    for (const auto &[knob, value] : pinned) {
        std::string why;
        if (!setGenKnob(spec, knob, value, &why))
            GS_FATAL("fuzz --knob ", knob, "=", value, ": ", why);
    }
    // A pinned scalar can push the drawn affine over the shared 100%
    // budget; trim the drawn half rather than rejecting the pin.
    if (spec.scalar + spec.affine > 100) {
        bool affinePinned = false;
        for (const auto &[knob, value] : pinned)
            affinePinned = affinePinned || knob == "affine";
        if (!affinePinned)
            spec.affine = 100 - spec.scalar;
    }
    if (const std::string why = spec.check(); !why.empty())
        GS_FATAL("fuzz spec ", index, " (seed ", campaignSeed,
                 "): pinned knobs produce an invalid spec: ", why);
    return spec;
}

FuzzCampaignResult
runFuzzCampaign(const FuzzOptions &opt)
{
    GS_ASSERT(opt.count > 0, "fuzz campaign wants count >= 1");

    // Specs first, serially: cheap, and keeps the draw order (and thus
    // every kernel) independent of worker scheduling.
    std::vector<GenSpec> specs;
    specs.reserve(opt.count);
    for (std::uint64_t i = 0; i < opt.count; ++i)
        specs.push_back(drawSpec(opt.seed, i, opt.knobs));

    std::vector<DiffOutcome> outcomes(opt.count);
    std::vector<std::shared_future<RunResult>> engineRuns;
    std::mutex engineMutex;

    ArchConfig engineCfg;
    engineCfg.mode = ArchMode::Baseline;
    engineCfg.numSms = opt.diff.numSms;
    engineCfg.maxCycles = opt.diff.maxCycles;

    {
        // Scoped pool: destruction drains the queue and joins, so the
        // post-pass below sees every outcome.
        WorkerPool pool(opt.jobs ? opt.jobs : defaultEngine().jobs());
        for (std::uint64_t i = 0; i < opt.count; ++i) {
            pool.submit([&, i] {
                const Kernel kernel = generateKernel(specs[i]);
                outcomes[i] = diffKernel(kernel, specs[i], opt.diff);
                if (opt.engineTraffic) {
                    std::shared_future<RunResult> f =
                        defaultEngine().submit(makeGenWorkload(specs[i]),
                                               engineCfg);
                    std::lock_guard<std::mutex> lock(engineMutex);
                    engineRuns.push_back(std::move(f));
                }
            });
        }
    }
    for (const std::shared_future<RunResult> &f : engineRuns)
        f.wait();

    // Post-pass in index order: minimization, artifacts and report
    // lines are deterministic regardless of worker interleaving.
    FuzzCampaignResult result;
    result.kernels = opt.count;
    for (std::uint64_t i = 0; i < opt.count; ++i) {
        const DiffOutcome &outcome = outcomes[i];
        if (outcome.refAborted) {
            ++result.refAborts;
            continue;
        }
        if (outcome.mismatches.empty())
            continue;
        ++result.miscompares;

        const DiffMismatch &first = outcome.mismatches.front();
        const Kernel kernel = generateKernel(specs[i]);
        const MinimizeResult minimized = minimizeKernel(
            kernel,
            [&](const Kernel &candidate) {
                return diffOneMode(candidate, specs[i], first.mode,
                                   opt.diff);
            },
            kMinimizeProbeBudget);

        // Re-diff the minimized kernel so the artifact records the
        // mismatch of the kernel it actually carries.
        DiffMismatch minimizedMismatch = first;
        diffOneMode(minimized.kernel, specs[i], first.mode, opt.diff,
                    &minimizedMismatch);

        std::string line = "MISCOMPARE kernel " + std::to_string(i) +
                           " (" + specs[i].toName() + "): " +
                           describeMismatch(minimizedMismatch) + "; minimized " +
                           std::to_string(kernel.code.size()) + " -> " +
                           std::to_string(minimized.kernel.code.size()) +
                           " instructions";

        if (!opt.corpusDir.empty()) {
            Reproducer repro;
            repro.spec = specs[i];
            repro.kernel = minimized.kernel;
            repro.mode = minimizedMismatch.mode;
            repro.index = minimizedMismatch.index;
            repro.want = minimizedMismatch.want;
            repro.got = minimizedMismatch.got;
            repro.note = "campaign seed " + std::to_string(opt.seed) +
                         " kernel " + std::to_string(i);
            std::string error;
            const std::string path =
                writeReproducer(repro, opt.corpusDir, &error);
            if (path.empty()) {
                line += "; ARTIFACT-WRITE-FAILED: " + error;
            } else {
                result.artifacts.push_back(path);
                line += "; artifact " + path;
            }
        }
        result.reportLines.push_back(std::move(line));
    }

    result.summaryText =
        "fuzz: kernels=" + std::to_string(result.kernels) +
        " miscompares=" + std::to_string(result.miscompares) +
        " ref-aborts=" + std::to_string(result.refAborts) +
        " artifacts=" + std::to_string(result.artifacts.size()) +
        " seed=" + std::to_string(opt.seed);
    return result;
}

bool
replayReproducer(const std::string &path, const DiffOptions &opt,
                 std::string *detail)
{
    auto note = [&](const std::string &text) {
        if (detail)
            *detail = text;
    };

    std::string error;
    const std::optional<Reproducer> repro = loadReproducer(path, &error);
    if (!repro) {
        note("cannot load '" + path + "': " + error);
        return false;
    }

    DiffMismatch got;
    if (!diffOneMode(repro->kernel, repro->spec, repro->mode, opt,
                     &got)) {
        note("no miscompare: mode " +
             std::string(archModeName(repro->mode)) +
             " now agrees with the reference");
        return false;
    }
    if (got.index != repro->index || got.want != repro->want ||
        got.got != repro->got) {
        note("different miscompare: recorded " +
             describeMismatch({repro->mode, repro->index, repro->want,
                               repro->got, false}) +
             ", observed " + describeMismatch(got));
        return false;
    }
    note("reproduced: " + describeMismatch(got));
    return true;
}

std::optional<std::uint64_t>
parseCountValue(const std::string &s)
{
    return parseDecimal(s, 1, 1'000'000);
}

std::optional<std::uint64_t>
parseSeedValue(const std::string &s)
{
    return parseDecimal(s);
}

} // namespace gs
