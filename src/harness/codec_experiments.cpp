/**
 * @file
 * Codec-framework experiments: the software encode/decode
 * micro-benchmark ("micro", driver micro_codec) and the codec
 * shootout ("shootout", driver fig_codec_shootout). Both register
 * with inDefaultRun = false, so the default `gscalar bench` text
 * keeps reproducing docs/bench_reference_output.txt byte for byte
 * while `--only micro` / `--only shootout` (or the driver binaries)
 * run them on demand.
 */

#include "experiments.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "compress/codec.hpp"
#include "runner.hpp"

namespace gs
{

namespace
{

/**
 * Canonical 32-lane register-value patterns, one per compressibility
 * family the byte-mask scheme distinguishes (§3.2): uniform scalar,
 * common 3-byte prefix, common 2-byte prefix, and incompressible
 * random words.
 */
std::vector<Word>
codecPattern(unsigned family)
{
    Rng rng(family + 1);
    std::vector<Word> v(32);
    for (unsigned i = 0; i < 32; ++i) {
        switch (family) {
          case 0: v[i] = 0xC04039C0; break;            // scalar
          case 1: v[i] = 0xC04039C0 + i * 8; break;    // 3-byte
          case 2: v[i] = 0xC0400000 + i * 1024; break; // 2-byte
          default: v[i] = rng.next32(); break;         // random
        }
    }
    return v;
}

const char *const kPatternNames[4] = {"scalar", "3-byte", "2-byte",
                                      "random"};

/** Geometric mean of @p xs (0 on empty input). */
double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0;
    double log_sum = 0;
    for (const double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / double(xs.size()));
}

double
ratioOr1(double num, double den)
{
    return den > 0 ? num / den : 1.0;
}

} // namespace

SuiteResult
buildMicroCodec(ExperimentEngine &, const ArchConfig &)
{
    using clock = std::chrono::steady_clock;
    constexpr unsigned kIters = 2000;
    constexpr double kRegBytes = 32.0 * 4.0; // one 32-lane register

    Table t("Codec micro-benchmark: software encode/decode over one "
            "32-lane register (GB/s columns are wall-clock; the rest "
            "is deterministic)");
    t.row({"codec", "pattern", "blob B", "ratio", "enc GB/s",
           "dec GB/s", "round-trip"});
    // Defeat dead-code elimination of the timed loops without
    // dragging in a benchmark framework.
    std::size_t guard = 0;
    for (const compress::Codec *codec : compress::allCodecs()) {
        for (unsigned family = 0; family < 4; ++family) {
            const std::vector<Word> values = codecPattern(family);
            const std::vector<std::uint8_t> blob = codec->encode(values);
            const std::optional<std::vector<Word>> back =
                codec->decode(blob);
            const bool ok = back && *back == values;

            const auto enc0 = clock::now();
            for (unsigned i = 0; i < kIters; ++i)
                guard += codec->encode(values).size();
            const auto enc1 = clock::now();
            for (unsigned i = 0; i < kIters; ++i) {
                const auto out = codec->decode(blob);
                guard += out ? out->size() : 0;
            }
            const auto dec1 = clock::now();

            const double enc_s =
                std::chrono::duration<double>(enc1 - enc0).count();
            const double dec_s =
                std::chrono::duration<double>(dec1 - enc1).count();
            const double bytes = double(kIters) * kRegBytes;
            t.row({codec->name(), kPatternNames[family],
                   std::to_string(blob.size()),
                   Table::num(kRegBytes / double(blob.size()), 2),
                   Table::num(enc_s > 0 ? bytes / enc_s / 1e9 : 0, 2),
                   Table::num(dec_s > 0 ? bytes / dec_s / 1e9 : 0, 2),
                   ok ? "ok" : "FAIL"});
        }
    }
    volatile std::size_t sink = guard;
    (void)sink;
    return makeSuiteResult("micro", "Sec 3.2", t);
}

SuiteResult
buildCodecShootout(ExperimentEngine &eng, const ArchConfig &base)
{
    // Fan out every run before joining anything: the Baseline
    // reference suite plus one full-suite sweep per registered codec.
    // Results join in registry x Table 2 order, so the table is
    // byte-identical at any --jobs level.
    ArchConfig bcfg = base;
    bcfg.mode = ArchMode::Baseline;
    std::vector<std::shared_future<RunResult>> baseline =
        eng.submitSuite(bcfg);

    const std::vector<const compress::Codec *> &codecs =
        compress::allCodecs();
    std::vector<std::vector<std::shared_future<RunResult>>> sweeps;
    for (const compress::Codec *codec : codecs) {
        ArchConfig cfg = base;
        cfg.mode = ArchMode::GScalarFull;
        cfg.codec = codec->id();
        sweeps.push_back(eng.submitSuite(cfg));
    }

    std::vector<RunResult> runs;
    std::vector<RunResult> base_runs;
    for (auto &f : baseline) {
        base_runs.push_back(f.get());
        runs.push_back(base_runs.back());
    }

    struct Entry
    {
        const compress::Codec *codec;
        double ratio;  ///< geomean stored-bytes compression ratio
        double energy; ///< geomean RF+codec energy vs Baseline RF
        double ipc;    ///< geomean IPC vs Baseline
        double eff;    ///< geomean IPC/W vs Baseline (the ranking key)
    };
    std::vector<Entry> entries;
    for (std::size_t c = 0; c < codecs.size(); ++c) {
        std::vector<double> ratio, energy, ipc, eff;
        for (std::size_t w = 0; w < base_runs.size(); ++w) {
            const RunResult r = sweeps[c][w].get();
            runs.push_back(r);
            const RunResult &b = base_runs[w];
            if (!r.ok() || !b.ok())
                continue;
            ratio.push_back(ratioOr1(double(r.ev.compBytesUncompressed),
                                     double(r.ev.compBytesCompressed)));
            energy.push_back(
                ratioOr1((r.power.regFileW + r.power.codecW) *
                             r.power.seconds,
                         b.power.regFileW * b.power.seconds));
            ipc.push_back(ratioOr1(r.power.ipc, b.power.ipc));
            eff.push_back(
                ratioOr1(r.power.ipcPerWatt(), b.power.ipcPerWatt()));
        }
        entries.push_back({codecs[c], geomean(ratio), geomean(energy),
                           geomean(ipc), geomean(eff)});
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry &a, const Entry &b) {
                         return a.eff > b.eff;
                     });

    Table t("Codec shootout: geomean over the Table 2 suite, "
            "normalized to the Baseline GPU (ranked by IPC/W)");
    t.row({"rank", "codec", "ratio", "RF energy", "IPC", "IPC/W"});
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        t.row({std::to_string(i + 1), e.codec->name(),
               Table::num(e.ratio, 3), Table::num(e.energy, 3),
               Table::num(e.ipc, 3), Table::num(e.eff, 3)});
    }
    return makeSuiteResult("shootout", "Sec 5.2/5.3", t,
                           std::move(runs));
}

} // namespace gs
