/**
 * @file
 * Simulator-core performance baseline. Unlike the figure/table drivers
 * this is deliberately NOT in the experiment registry: its numbers are
 * host-dependent wall-clock measurements, so it must never join the
 * golden byte-compare. It emits one gscalar.bench.v1 document with
 * four metric groups:
 *
 *   suite setup    ms to build, fill and analyse all 17 workloads
 *   sim-cycles/s   a representative kernel mix simulated serially
 *   runs/s         distinct-seed runs pushed through the experiment
 *                  engine's worker pool (the cross-run GS_JOBS axis)
 *   codec GB/s     classify + compress throughput of the byte-mask
 *                  codec's one plain kernel
 *
 * The committed baseline lives at BENCH_sim_core.json (repo root);
 * refresh it with:
 *
 *   perf_sim_core --json > BENCH_sim_core.json
 *
 * Values are machine-dependent — CI validates the schema, never the
 * numbers. The JSON document records the host as extra top-level keys
 * (nproc, cpu, compiler, build_type).
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "compress/byte_mask_codec.hpp"
#include "harness/engine.hpp"
#include "harness/runner.hpp"
#include "isa/analysis.hpp"
#include "obs/result.hpp"

namespace
{

using namespace gs;
using Clock = std::chrono::steady_clock;

/** Representative kernel mix: compute-, divergence- and memory-heavy. */
const std::vector<std::string> kMix = {"BP", "HS", "MQ", "PF"};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** micro_codec's value families: scalar, 3-byte, 2-byte, random. */
std::vector<Word>
pattern(unsigned family, unsigned lanes)
{
    Rng rng(family + 1);
    std::vector<Word> v(lanes);
    for (unsigned i = 0; i < lanes; ++i) {
        switch (family) {
          case 0: v[i] = 0xC04039C0; break;
          case 1: v[i] = 0xC04039C0 + i * 8; break;
          case 2: v[i] = 0xC0400000 + i * 1024; break;
          default: v[i] = rng.next32(); break;
        }
    }
    return v;
}

/**
 * Set-up of the 17 Table 2 workloads: build each, write its inputs into
 * device memory, analyse its kernels. One set-up takes a few ms and is
 * heavy on allocation, so the row is the fastest of many.
 */
void
setupRow(Table &t)
{
    constexpr int kSetups = 25;
    const ArchConfig cfg;
    double fastest = 1e300, total = 0;
    for (int rep = 0; rep < kSetups; ++rep) {
        const auto t0 = Clock::now();
        for (const std::string &name : workloadNames()) {
            const Workload w = makeWorkload(name);
            GlobalMemory mem;
            if (w.setup)
                w.setup(mem, cfg.seed);
            for (const WorkloadLaunch &l : w.launches)
                (void)analyzeKernel(l.kernel);
        }
        const double secs = secondsSince(t0);
        fastest = std::min(fastest, secs);
        total += secs;
    }
    t.row({"suite setup", "ms", Table::num(fastest * 1e3, 2),
           Table::num(total, 3)});
}

/** One kernel-mix pass. */
void
simMixRow(Table &t)
{
    std::uint64_t cycles = 0;
    const auto t0 = Clock::now();
    for (const std::string &w : kMix) {
        ArchConfig cfg;
        cycles += runWorkload(w, cfg).ev.cycles;
    }
    const double secs = secondsSince(t0);
    t.row({"sim-mix", "sim-cycles/s", Table::num(double(cycles) / secs, 0),
           Table::num(secs, 3)});
}

/** Distinct-seed fan-out through the engine's worker pool. */
void
engineRow(Table &t)
{
    ExperimentEngine engine(0); // 0 = defaultJobs (GS_JOBS / --jobs)
    const unsigned kRuns = 8;
    std::vector<std::shared_future<RunResult>> futures;
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < kRuns; ++i) {
        ArchConfig cfg;
        cfg.seed = 1000 + i; // distinct keys: no memoized shortcuts
        futures.push_back(engine.submit("BP", cfg));
    }
    for (auto &f : futures)
        f.get();
    const double secs = secondsSince(t0);
    std::ostringstream label;
    label << "engine jobs=" << engine.jobs();
    t.row({label.str(), "runs/s", Table::num(kRuns / secs, 2),
           Table::num(secs, 3)});
}

/** Classify + compress throughput of the byte-mask codec. */
void
codecRows(Table &t)
{
    constexpr unsigned kLanes = 32;
    constexpr unsigned kFamilies = 4;
    constexpr std::size_t kIters = 1'500'000;
    const LaneMask full = laneMaskLow(kLanes);

    std::vector<std::vector<Word>> inputs;
    for (unsigned f = 0; f < kFamilies; ++f)
        inputs.push_back(pattern(f, kLanes));
    const double bytesPerIter =
        double(kFamilies) * kLanes * sizeof(Word);

    // Classify (analyzeByteMask is the simulator's hot codec path).
    unsigned sink = 0;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i)
        for (const auto &v : inputs)
            sink += analyzeByteMask(v, full).commonMsbs;
    double secs = secondsSince(t0);
    t.row({"codec classify", "GB/s",
           Table::num(bytesPerIter * double(kIters) / secs / 1e9, 3),
           Table::num(secs, 3)});

    // Compress (the software packer of Table 3 / micro_codec).
    std::size_t bytes = 0;
    t0 = Clock::now();
    for (std::size_t i = 0; i < kIters / 4; ++i)
        for (const auto &v : inputs)
            bytes += byteMaskCompress(v).size();
    secs = secondsSince(t0);
    t.row({"codec compress", "GB/s",
           Table::num(bytesPerIter * double(kIters / 4) / secs / 1e9,
                      3),
           Table::num(secs, 3)});
    if (sink == 0 && bytes == 0)
        std::cerr << ""; // keep the measured loops observable
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

/** The host's key/value lines, spliced in after the document's "runs". */
std::string
hostKeys()
{
    std::ostringstream os;
    os << ",\n  \"nproc\": " << std::thread::hardware_concurrency()
       << ",\n  \"cpu\": \"" << jsonEscape(cpuModel()) << "\""
       << ",\n  \"compiler\": \"" << jsonEscape(GS_COMPILER) << "\""
       << ",\n  \"build_type\": \"" << jsonEscape(GS_BUILD_TYPE) << "\"";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    initHarness(argc, argv);
    ResultFormat format = ResultFormat::Text;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--json") {
            format = ResultFormat::Json;
        } else if (a.rfind("--format=", 0) == 0) {
            const auto f = parseResultFormat(a.substr(9));
            if (!f)
                GS_FATAL("unknown --format '", a.substr(9), "'");
            format = *f;
        } else if (const std::optional<int> n = processFlagValues(a)) {
            i += *n; // consumed by initHarness
        } else {
            GS_FATAL("unknown option '", a,
                     "' (perf_sim_core [--json|--format=F])");
        }
    }

    Table t("Simulator-core performance baseline (host-dependent)");
    t.row({"case", "metric", "value", "secs"});

    setupRow(t);
    simMixRow(t);
    engineRow(t);
    codecRows(t);

    const SuiteResult result = makeSuiteResult(
        "perf_sim_core", "perf", t);
    std::ostringstream doc;
    makeResultSink(format, doc)->emit(result);
    std::string out = doc.str();
    if (format == ResultFormat::Json)
        out.insert(out.rfind("\n}"), hostKeys());
    std::cout << out;
    return 0;
}
