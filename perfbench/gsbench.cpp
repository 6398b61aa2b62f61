/**
 * @file
 * End-to-end benchmark program for the simulator, the experiment engine
 * and the gscalard daemon. One process runs one named workload against
 * the library's public entry points, checks every output, and prints
 * the metrics as the last line of stdout:
 *
 *   gsbench --workload suite-serial --seed 7 --seconds 10 --trace 0
 *
 * --trace 0 prints the end-to-end metrics of untraced passes; --trace 1
 * runs a pass with spans around every layer call and prints the
 * per-layer metrics. METRICS.md describes every metric and workload.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.hpp"
#include "compress/byte_mask_codec.hpp"
#include "compress/simd.hpp"
#include "harness/engine.hpp"
#include "harness/experiments.hpp"
#include "harness/runner.hpp"
#include "isa/analysis.hpp"
#include "obs/result.hpp"
#include "power/energy_model.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/gpu.hpp"
#include "sim/parallel.hpp"
#include "store/run_cache.hpp"
#include "store/serial.hpp"
#include "workloads/workload.hpp"

extern char **environ;

namespace
{

using namespace gs;
using gsb::Scope;
using gsb::SpanLog;

// ---- metric catalogue ----------------------------------------------------

struct MetricDef
{
    std::string name;
    std::string unit;
    std::string better; ///< "higher" or "lower"
    double bound = 0;   ///< end-to-end only: allowed worsening share
};

/** Paper reference values printed beside the model metrics. */
constexpr double kPaperIpcPerWattGain = 1.24; // Fig. 11, G-Scalar AVG
constexpr double kPaperRfPowerRatio = 0.46;   // Fig. 12, "ours" AVG

/** The cheap Table 2 workloads serve-mixed draws its requests from. */
const std::vector<std::string> kServeWorkloads = {"LC", "SR2", "ST"};

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s", "lower", 0.25},
        {"wall_s", "s", "lower", 0.25},
        {"cpu_s", "s", "lower", 0.25},
        {"sim_cycles_per_s", "1/s", "higher", 0.25},
        {"warp_insts_per_s", "1/s", "higher", 0.25},
        {"peak_rss_mb", "MB", "lower", 0.1},
        {"ok_frac", "fraction", "higher", 0.01},
        {"latency_p90_ms.lo", "ms", "lower", 0.25},
        {"latency_p90_ms.hi", "ms", "lower", 0.25},
        {"model.ipc_per_watt_gain", "ratio", "higher", 0.05},
        {"model.rf_power_ratio", "ratio", "lower", 0.05},
    };
    return defs;
}

std::vector<std::string>
defaultExperimentNames()
{
    std::vector<std::string> out;
    for (const Experiment &e : experiments())
        if (e.inDefaultRun)
            out.push_back(e.name);
    return out;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"workloads.build_ms", "ms", "lower"},
            {"workloads.setup_ms", "ms", "lower"},
            {"isa.analyze_ms", "ms", "lower"},
            {"sim.launch_ms", "ms", "lower"},
        };
        for (const std::string &w : workloadNames())
            d.push_back({"sim.launch_ms." + w, "ms", "lower"});
        const std::vector<MetricDef> sim = {
            {"sim.ns_per_cycle", "ns", "lower"},
            {"sim.ns_per_warp_inst", "ns", "lower"},
            {"sim.sched_idle_frac", "fraction", "lower"},
            {"sim.scoreboard_stalls", "count", "lower"},
            {"sim.oc_full_stalls", "count", "lower"},
            {"sim.pipe_busy_stalls", "count", "lower"},
            {"sim.mshr_stall_cycles", "count", "lower"},
            {"parallel.cores_used", "cores", "higher"},
            {"parallel.launch_ms", "ms", "lower"},
        };
        d.insert(d.end(), sim.begin(), sim.end());
        for (const std::string &w : workloadNames())
            d.push_back({"parallel.launch_ms." + w, "ms", "lower"});
        const std::vector<MetricDef> rest = {
            {"compress.classify_ns", "ns", "lower"},
            {"compress.ratio", "ratio", "higher"},
            {"compress.special_moves", "count", "lower"},
            {"compress.compressor_uses", "count", "lower"},
            {"power.compute_us", "us", "lower"},
            {"engine.utilization", "fraction", "higher"},
        };
        d.insert(d.end(), rest.begin(), rest.end());
        for (const std::string &e : defaultExperimentNames())
            d.push_back({"engine.experiment_ms." + e, "ms", "lower"});
        const std::vector<MetricDef> tail = {
            {"engine.peak_queue", "count", "lower"},
            {"engine.memo_hit_ratio", "fraction", "higher"},
            {"engine.cpu_per_run_s", "s", "lower"},
            {"engine.retries", "count", "lower"},
            {"store.load_ms", "ms", "lower"},
            {"store.store_ms", "ms", "lower"},
            {"store.hits", "count", "higher"},
            {"store.stores", "count", "lower"},
            {"store.rejects", "count", "lower"},
            {"store.serialize_us", "us", "lower"},
            {"store.deserialize_us", "us", "lower"},
            {"serve.computed", "count", "lower"},
            {"serve.unique", "count", "lower"},
            {"serve.coalesce_followers", "count", "higher"},
            {"serve.queue_sheds", "count", "lower"},
            {"serve.batch_peak", "count", "higher"},
            {"serve.server_p50_ms", "ms", "lower"},
            {"serve.reactor_loop_p90_us", "us", "lower"},
            {"serve.fresh_p50_ms", "ms", "lower"},
            {"serve.dup_p50_ms", "ms", "lower"},
            {"serve.disk_p50_ms", "ms", "lower"},
            {"serve.latency_p50_ms.lo", "ms", "lower"},
            {"serve.latency_p50_ms.hi", "ms", "lower"},
            {"serve.max_rate_at_slo", "1/s", "higher"},
            {"gen.late_p90_ms", "ms", "lower"},
            {"gen.backlog_max", "count", "lower"},
            {"failed_frac", "fraction", "lower"},
            {"trace.overhead_pct", "%", "lower"},
        };
        d.insert(d.end(), tail.begin(), tail.end());
        return d;
    }();
    return defs;
}

// ---- run-wide state ------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workDir;   ///< fresh private directory, removed by the caller
    std::string golden;    ///< docs/bench_reference_output.txt
    std::string digestDir; ///< per-build directory of counter digests
    std::string traceDir;  ///< where span logs are written
};

/** Correctness verdict plus operation counts of one benchmark run. */
struct Checks
{
    bool ok = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    expect(bool cond, const std::string &what)
    {
        if (cond)
            return;
        if (ok || ++reported_ < 20)
            std::cerr << "gsbench: CHECK FAILED: " << what << "\n";
        ok = false;
    }

  private:
    unsigned reported_ = 0;
};

/** Metric values of one run, keyed by name. */
using Values = std::map<std::string, double>;

double
nowS()
{
    return double(SpanLog::nowNs()) / 1e9;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

unsigned
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Engine workers per workload. The daemon gets half the host's cores so
 * its reactor, clients and load generator are not starved: with the
 * cores busy simulating, fast requests were dispatched milliseconds late
 * and the latency median jumped with them.
 */
unsigned
workloadJobs(const std::string &workload)
{
    if (workload == "bench-cold")
        return hostThreads();
    if (workload == "serve-mixed")
        return std::max(1u, hostThreads() / 2);
    return 1;
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

/** Drop every GS_* variable inherited from the caller's environment. */
void
scrubEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        const std::string kv = *e;
        if (kv.rfind("GS_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
}

/** Workload input seed derived from the benchmark seed. */
std::uint64_t
inputSeed(std::uint64_t benchSeed, std::uint64_t salt = 0)
{
    return 2 + gsb::mix64(benchSeed * 0x100000001b3ull + salt) %
                   1'000'000'000ull;
}

ArchConfig
modeConfig(ArchMode mode, std::uint64_t seed)
{
    ArchConfig cfg = experimentConfig();
    cfg.mode = mode;
    cfg.seed = seed;
    return cfg;
}

/** Content digest of a result, ignoring its host wall-clock field. */
std::uint64_t
resultDigest(RunResult r)
{
    r.wallSeconds = 0;
    const std::vector<std::uint8_t> b = serializeResult(r);
    return fnv1a(b.data(), b.size());
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << v;
    return os.str();
}

/** Fig. 11 G-Scalar mean IPC/W gain and Fig. 12 "ours" mean RF power. */
struct ModelMeans
{
    double ipcPerWattGain = 0;
    double rfPowerRatio = 0;
};

ModelMeans
modelMeans(const std::vector<RunResult> &base,
           const std::vector<RunResult> &full)
{
    ModelMeans m;
    if (base.empty() || base.size() != full.size())
        return m;
    for (std::size_t i = 0; i < base.size(); ++i) {
        m.ipcPerWattGain +=
            full[i].power.ipcPerWatt() / base[i].power.ipcPerWatt();
        const RfEnergyBreakdown b = computeRfEnergy(base[i].ev);
        m.rfPowerRatio += b.oursJ / b.baselineJ;
    }
    m.ipcPerWattGain /= double(base.size());
    m.rfPowerRatio /= double(base.size());
    return m;
}

void
putModel(Values &e2e, const ModelMeans &m)
{
    e2e["model.ipc_per_watt_gain"] = m.ipcPerWattGain;
    e2e["model.rf_power_ratio"] = m.rfPowerRatio;
}

volatile std::uint64_t probeSink = 0;

/** Mean ns of one analyzeByteMask call on a mixed register-value set. */
double
classifyProbeNs(std::uint64_t seed)
{
    constexpr std::size_t kRegs = 4096, kLanes = 32;
    std::vector<Word> values(kRegs * kLanes);
    gsb::Rng rng(seed);
    for (std::size_t r = 0; r < kRegs; ++r) {
        const Word base = Word(rng.next());
        const unsigned shape = unsigned(r % 4); // scalar, 3B, 2B, random
        for (std::size_t l = 0; l < kLanes; ++l) {
            const Word noise = Word(rng.next());
            const Word mask = shape == 0   ? 0
                              : shape == 1 ? 0xffu
                              : shape == 2 ? 0xffffu
                                           : 0xffffffffu;
            values[r * kLanes + l] = (base & ~mask) | (noise & mask);
        }
    }
    std::uint64_t sink = 0;
    const double t0 = nowS();
    constexpr int kReps = 8;
    for (int rep = 0; rep < kReps; ++rep)
        for (std::size_t r = 0; r < kRegs; ++r)
            sink += analyzeByteMask(std::span<const Word>(
                                        &values[r * kLanes], kLanes),
                                    laneMaskLow(kLanes))
                        .commonMsbs;
    const double dt = nowS() - t0;
    probeSink = sink; // keeps the calls from being optimised away
    return dt * 1e9 / double(kReps * kRegs);
}

/** Mean serialize / deserialize cost of one RunResult, in us. */
std::pair<double, double>
storeProbeUs(const RunResult &r)
{
    constexpr int kReps = 2000;
    std::vector<std::uint8_t> blob;
    double t0 = nowS();
    for (int i = 0; i < kReps; ++i)
        blob = serializeResult(r);
    const double ser = (nowS() - t0) * 1e6 / kReps;
    std::size_t okCount = 0;
    t0 = nowS();
    for (int i = 0; i < kReps; ++i)
        okCount += deserializeResult(blob).has_value();
    const double de = (nowS() - t0) * 1e6 / kReps;
    return {ser, okCount == kReps ? de : 0};
}

/** Write the span log as JSON lines (one span per line). */
void
writeSpans(const Options &opt, const SpanLog &log)
{
    if (opt.traceDir.empty())
        return;
    std::filesystem::create_directories(opt.traceDir);
    const std::string path = opt.traceDir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".jsonl";
    std::ofstream out(path, std::ios::trunc);
    const std::vector<gsb::Span> spans = log.spans();
    const std::vector<std::int64_t> self = gsb::selfTimesNs(spans);
    for (std::size_t i = 0; i < spans.size(); ++i)
        out << "{\"id\":" << i
            << ",\"name\":" << gsb::jsonString(spans[i].name)
            << ",\"start_ns\":" << spans[i].startNs
            << ",\"end_ns\":" << spans[i].endNs
            << ",\"parent\":" << spans[i].parent
            << ",\"request\":" << spans[i].requestId
            << ",\"self_ns\":" << self[i] << "}\n";
    std::cerr << "gsbench: wrote " << spans.size() << " spans to " << path
              << "\n";
}

/** Per-span bookkeeping cost, for overhead estimates of long passes. */
double
spanCostNs()
{
    SpanLog probe(true);
    constexpr int kN = 20000;
    const double t0 = nowS();
    for (int i = 0; i < kN; ++i)
        Scope s(probe, "probe", std::uint64_t(i));
    return (nowS() - t0) * 1e9 / kN;
}

/**
 * --seconds buys one suite pass per this much. On a 4-core host a pass
 * takes 11-16 s, so --seconds 20 buys two and each run is timed at its
 * faster one. bench-cold always makes one pass (24-33 s).
 */
constexpr double kSuitePassSeconds = 10;

/**
 * Suite set-ups come in groups of this many, before each mode's runs and
 * after the last pass: 50 at --seconds 20. With two before every run the
 * runs' times spread 18-23% over 10 seeds, which host drift alone may
 * explain; grouped, the runs stay as they were without set-ups.
 */
constexpr int kSuiteSetupsPerGap = 10;

/** Whole passes that --seconds pays for; always at least one. */
int
passCount(double seconds, double passSeconds)
{
    return std::max(1, int(seconds / passSeconds));
}

/** Run @p fn(i) for i in [0, n) on @p threads threads. */
void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&] {
            for (std::size_t i = next++; i < n; i = next++)
                fn(i);
        });
    for (std::thread &t : pool)
        t.join();
}

// ---- set-up --------------------------------------------------------------

/**
 * The set-up every workload pays before it measures: build the 17
 * Table 2 workloads, initialise each one's device memory for the input
 * seed, and run the static kernel analysis on every launch. Returns the
 * seconds taken; spans go to @p log when tracing.
 */
double
prepareSuite(std::uint64_t seed, SpanLog &log)
{
    const double t0 = nowS();
    const ArchConfig cfg = modeConfig(ArchMode::Baseline, seed);
    for (const std::string &name : workloadNames()) {
        Scope prep(log, "setup." + name);
        std::optional<Workload> w;
        {
            Scope s(log, "workloads.build");
            w.emplace(makeWorkload(name));
        }
        Gpu gpu(cfg);
        if (w->setup) {
            Scope s(log, "workload.setup");
            w->setup(gpu.memory(), cfg.seed);
        }
        for (const WorkloadLaunch &l : w->launches) {
            Scope s(log, "isa.analyze");
            const KernelAnalysis a = analyzeKernel(l.kernel);
            (void)a;
        }
    }
    return nowS() - t0;
}

/**
 * Set-up time: the fastest of repeated set-ups interleaved with the
 * measured work. One set-up takes 10-20 ms and is heavy on allocation.
 * The median of set-ups made back to back took whatever spell the host
 * was in and moved 27-37% from run to run; the median of interleaved
 * set-ups still moved 12-27%, their fastest 8-14%. Work added to set-up
 * still shows in full. The time and CPU the repetitions take are kept,
 * so callers can leave them out of the work's own figures.
 */
class SetupTimer
{
  public:
    explicit SetupTimer(std::function<double()> once)
        : once_(std::move(once))
    {}

    void
    sample(int reps = 1)
    {
        for (int i = 0; i < reps; ++i) {
            const double t0 = nowS(), c0 = cpuSeconds();
            t_.push_back(once_());
            wallSpent_ += nowS() - t0;
            cpuSpent_ += cpuSeconds() - c0;
        }
    }

    double
    fastest() const
    {
        std::cerr << "gsbench: " << t_.size() << " set-ups, fastest "
                  << gsb::percentile(t_, 0) * 1e3 << " ms, median "
                  << gsb::median(t_) * 1e3 << " ms\n";
        return gsb::percentile(t_, 0);
    }

    double wallSpent() const { return wallSpent_; }
    double cpuSpent() const { return cpuSpent_; }

  private:
    std::function<double()> once_;
    std::vector<double> t_;
    double wallSpent_ = 0, cpuSpent_ = 0;
};

// ---- suite workloads -----------------------------------------------------

/**
 * runWorkload's public steps, one span each, so the traced pass splits
 * a run into layers while reproducing its counters exactly.
 */
RunResult
tracedRun(const RunRequest &req, SpanLog &log, std::uint64_t reqId)
{
    Scope run(log, "run", reqId);
    ArchConfig cfg = req.cfg;
    if (req.seed)
        cfg.seed = *req.seed;
    const double t0 = nowS();
    std::optional<Workload> w;
    {
        Scope s(log, "workloads.build", reqId);
        w.emplace(makeWorkload(req.workload));
    }
    RunResult r;
    r.workload = w->name;
    r.mode = cfg.mode;
    Gpu gpu(cfg);
    if (w->setup) {
        Scope s(log, "workload.setup", reqId);
        w->setup(gpu.memory(), cfg.seed);
    }
    bool first = true;
    for (const WorkloadLaunch &launch : w->launches) {
        {
            Scope s(log, "isa.analyze", reqId);
            const KernelAnalysis a = analyzeKernel(launch.kernel);
            (void)a;
        }
        EventCounts ev;
        {
            Scope s(log, "sim.launch", reqId);
            ev = gpu.launch(launch.kernel, launch.dims);
        }
        if (first) {
            r.ev = ev;
            first = false;
        } else {
            const auto prev = r.ev.cycles;
            r.ev += ev;
            r.ev.cycles = prev + ev.cycles;
        }
    }
    {
        Scope s(log, "power.compute", reqId);
        r.power = computePower(r.ev, cfg, req.energy);
    }
    r.wallSeconds = nowS() - t0;
    return r;
}

/** The suite run list: 17 workloads in baseline, then in gscalar mode. */
std::vector<RunRequest>
suiteRequests(std::uint64_t seed)
{
    std::vector<RunRequest> out;
    for (const ArchMode m : {ArchMode::Baseline, ArchMode::GScalarFull})
        for (const std::string &w : workloadNames()) {
            RunRequest req;
            req.workload = w;
            req.cfg = modeConfig(m, seed);
            out.push_back(req);
        }
    return out;
}

struct PassStats
{
    double wall = 0;
    double cpu = 0;
    std::vector<double> opMs;  ///< per-request host latency
    std::vector<double> opCpu; ///< per-request process CPU seconds
    std::vector<RunResult> results;
};

/** One pass over @p reqs; traced when @p log is given, with request
 *  ids idBase + 1 .. idBase + reqs.size(). When @p setup is given,
 *  kSuiteSetupsPerGap set-ups precede each mode's half of the runs, and
 *  are left out of the pass's times. */
PassStats
runSuitePass(const std::vector<RunRequest> &reqs, SpanLog *log,
             std::uint64_t idBase = 0, SetupTimer *setup = nullptr)
{
    PassStats p;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (setup && i % (reqs.size() / 2) == 0)
            setup->sample(kSuiteSetupsPerGap);
        const double s = nowS(), c = cpuSeconds();
        p.results.push_back(log ? tracedRun(reqs[i], *log, idBase + i + 1)
                                : runWorkload(reqs[i]));
        p.opMs.push_back((nowS() - s) * 1e3);
        p.opCpu.push_back(cpuSeconds() - c);
        p.wall += p.opMs.back() / 1e3;
        p.cpu += p.opCpu.back();
    }
    return p;
}

/**
 * Compare this run's counters with the digests recorded by earlier runs
 * of the same build and seed, then record any missing ones.
 */
void
checkDigestFile(const Options &opt, std::uint64_t seed,
                const std::vector<RunResult> &results, Checks &checks)
{
    if (opt.digestDir.empty())
        return;
    std::filesystem::create_directories(opt.digestDir);
    const std::string path =
        opt.digestDir + "/suite-" + std::to_string(seed) + ".txt";
    std::map<std::string, std::string> known;
    {
        std::ifstream in(path);
        std::string key, mode, dig;
        while (in >> key >> mode >> dig)
            known[key + " " + mode] = dig;
    }
    bool missing = false;
    for (const RunResult &r : results) {
        const std::string key =
            r.workload + " " + std::string(archModeName(r.mode));
        const std::string dig = hex(resultDigest(r));
        auto it = known.find(key);
        if (it == known.end())
            missing = true;
        else
            checks.expect(it->second == dig,
                          "counters of " + key +
                              " differ from an earlier run of this build");
    }
    if (missing) {
        const std::string tmp = path + ".tmp" + std::to_string(getpid());
        {
            std::ofstream out(tmp, std::ios::trunc);
            for (const RunResult &r : results)
                out << r.workload << " " << archModeName(r.mode) << " "
                    << hex(resultDigest(r)) << "\n";
        }
        std::filesystem::rename(tmp, path);
    }
}

void
runSuite(const Options &opt, Values &e2e, Values &layer, Checks &checks)
{
    setSimThreads(1);
    const std::uint64_t seed = inputSeed(opt.seed);
    const std::vector<RunRequest> reqs = suiteRequests(seed);

    // Untraced passes: one per kSuitePassSeconds of --seconds (a pass
    // takes about that long), at least one, with set-ups before each
    // mode's runs and after the last pass. The traced run makes one pass,
    // without set-ups, as the baseline of the tracing overhead.
    SpanLog off(false);
    SetupTimer setup([&] { return prepareSuite(seed, off); });
    std::vector<PassStats> passes(
        opt.trace ? 1 : passCount(opt.seconds, kSuitePassSeconds));
    for (PassStats &p : passes) {
        p = runSuitePass(reqs, nullptr, 0, opt.trace ? nullptr : &setup);
        std::cerr << "gsbench: pass wall " << p.wall << " s, cpu " << p.cpu
                  << " s\n";
    }
    if (!opt.trace) {
        setup.sample(kSuiteSetupsPerGap);
        e2e["setup_s"] = setup.fastest();
    }

    const PassStats &ref = passes.front();
    for (const PassStats &p : passes)
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            ++checks.attempted;
            const RunResult &r = p.results[i];
            if (!r.ok()) {
                ++checks.failed;
                checks.expect(false, "run " + reqs[i].workload +
                                         " failed: " + r.error);
                continue;
            }
            checks.expect(resultDigest(r) == resultDigest(ref.results[i]),
                          "counters of " + reqs[i].workload +
                              " differ between passes");
        }

    checkDigestFile(opt, seed, ref.results, checks);

    // With several passes, each request's time is its fastest over them
    // (filtering the host's transient slow spells), and a pass is the
    // sum of those.
    std::vector<double> opMs(reqs.size(), 1e300), opCpu(reqs.size(), 1e300);
    for (const PassStats &p : passes)
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            opMs[i] = std::min(opMs[i], p.opMs[i]);
            opCpu[i] = std::min(opCpu[i], p.opCpu[i]);
        }
    double wall = 0, cpu = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        wall += opMs[i] / 1e3;
        cpu += opCpu[i];
    }
    std::uint64_t cycles = 0, insts = 0;
    for (const RunResult &r : ref.results) {
        cycles += r.ev.cycles;
        insts += r.ev.warpInsts;
    }
    // Seventeen runs per mode support no p90, and the interpolated one
    // followed MV alone (27% spread over 10 seeds); the latency rows are
    // the time to run each mode's batch, the two halves of wall_s.
    const std::size_t half = reqs.size() / 2;
    double loMs = 0, hiMs = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        (i < half ? loMs : hiMs) += opMs[i];
    e2e["wall_s"] = wall;
    e2e["cpu_s"] = cpu;
    e2e["sim_cycles_per_s"] = double(cycles) / wall;
    e2e["warp_insts_per_s"] = double(insts) / wall;
    e2e["latency_p90_ms.lo"] = loMs;
    e2e["latency_p90_ms.hi"] = hiMs;
    putModel(e2e, modelMeans({ref.results.begin(),
                              ref.results.begin() + long(half)},
                             {ref.results.begin() + long(half),
                              ref.results.end()}));

    if (!opt.trace)
        return;

    // Traced passes: spans around each of runWorkload's steps, serial
    // and then at --sim-threads = nproc (sim/parallel's layer). Both must
    // reproduce the untraced serial counters exactly.
    SpanLog log(true);
    const PassStats traced = runSuitePass(reqs, &log);
    setSimThreads(hostThreads());
    const PassStats threaded = runSuitePass(reqs, &log, reqs.size());
    setSimThreads(1);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        checks.expect(resultDigest(traced.results[i]) ==
                          resultDigest(ref.results[i]),
                      "traced " + reqs[i].workload +
                          " does not reproduce runWorkload's counters");
        checks.expect(resultDigest(threaded.results[i]) ==
                          resultDigest(ref.results[i]),
                      "threaded " + reqs[i].workload +
                          " differs from its serial run");
    }
    prepareSuite(seed, log); // set-up spans, for the trace file only

    const std::vector<gsb::Span> spans = log.spans();
    const std::vector<std::int64_t> self = gsb::selfTimesNs(spans);
    std::map<std::string, double> byName;
    std::size_t powerCalls = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const gsb::Span &s = spans[i];
        if (s.requestId == 0)
            continue; // set-up spans
        const bool serial = s.requestId <= reqs.size();
        const std::string &w =
            reqs[(s.requestId - 1) % reqs.size()].workload;
        const double ms = double(self[i]) / 1e6;
        if (s.name == "sim.launch") {
            const std::string layerName =
                serial ? "sim.launch_ms" : "parallel.launch_ms";
            layer[layerName] += ms;
            layer[layerName + "." + w] += ms;
        }
        if (serial) {
            byName[s.name] += ms;
            powerCalls += s.name == "power.compute";
        }
    }
    layer["workloads.build_ms"] = byName["workloads.build"];
    layer["workloads.setup_ms"] = byName["workload.setup"];
    layer["isa.analyze_ms"] = byName["isa.analyze"];
    layer["sim.ns_per_cycle"] = byName["sim.launch"] * 1e6 / double(cycles);
    layer["sim.ns_per_warp_inst"] =
        byName["sim.launch"] * 1e6 / double(insts);
    layer["power.compute_us"] =
        powerCalls ? byName["power.compute"] * 1e3 / double(powerCalls) : 0;

    EventCounts sum;
    double schedSlots = 0;
    for (const RunResult &r : ref.results) {
        sum += r.ev;
        schedSlots += double(r.ev.cycles) * reqs[0].cfg.numSms *
                      reqs[0].cfg.numSchedulers;
    }
    layer["sim.sched_idle_frac"] = double(sum.schedIdleCycles) / schedSlots;
    layer["sim.scoreboard_stalls"] = double(sum.scoreboardStalls);
    layer["sim.oc_full_stalls"] = double(sum.ocFullStalls);
    layer["sim.pipe_busy_stalls"] = double(sum.pipeBusyStalls);
    layer["sim.mshr_stall_cycles"] = double(sum.mshrStallCycles);
    layer["compress.ratio"] = sum.compressionRatio();
    layer["compress.special_moves"] = double(sum.specialMoveInsts);
    layer["compress.compressor_uses"] = double(sum.compressorUses);
    layer["parallel.cores_used"] = threaded.cpu / threaded.wall;
    layer["trace.overhead_pct"] = (traced.wall - ref.wall) / ref.wall * 100;
    writeSpans(opt, log);
}

// ---- bench-cold ----------------------------------------------------------

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
runBenchCold(const Options &opt, Values &e2e, Values &layer,
             Checks &checks)
{
    setSimThreads(1);
    const unsigned jobs = workloadJobs(opt.workload);
    const std::string golden = readFile(opt.golden);
    checks.expect(!golden.empty(), "golden report " + opt.golden +
                                       " is missing or empty");
    const ArchConfig cfg = experimentConfig();
    std::vector<const Experiment *> selected;
    for (const Experiment &e : experiments())
        if (e.inDefaultRun)
            selected.push_back(&e);

    int cacheSerial = 0;
    auto freshCacheDir = [&] {
        const std::string dir =
            opt.workDir + "/bench-cache-" + std::to_string(cacheSerial++);
        std::filesystem::remove_all(dir);
        return dir;
    };

    SpanLog off(false);
    SetupTimer setup([&] {
        const double t0 = nowS();
        prepareSuite(inputSeed(opt.seed), off);
        ExperimentEngine eng(jobs);
        eng.setDiskCache(std::make_unique<DiskRunCache>(freshCacheDir()));
        return nowS() - t0;
    });

    // One pass: the report, then the model metrics at the golden inputs
    // (memo hits on the runs the Fig. 11/12 experiments already made).
    // Untraced, two set-ups precede each experiment, while the engine is
    // idle, and are left out of the pass's times.
    SpanLog log(opt.trace);
    std::vector<double> expMs, sectionMs;
    const double c0 = cpuSeconds(), t0 = nowS();
    ExperimentEngine eng(jobs);
    eng.setDiskCache(std::make_unique<DiskRunCache>(freshCacheDir()));
    std::ostringstream text;
    const auto sink = makeResultSink(ResultFormat::Text, text);
    for (std::size_t i = 0; i < selected.size(); ++i) {
        if (!opt.trace)
            setup.sample(2);
        const double s = nowS();
        {
            Scope span(log, "experiment.build", i + 1);
            selected[i]->run(eng, cfg, *sink);
        }
        expMs.push_back((nowS() - s) * 1e3);
        sectionMs.push_back((nowS() - t0 - setup.wallSpent()) * 1e3);
    }
    const double wall = nowS() - t0 - setup.wallSpent();
    const double cpu = cpuSeconds() - c0 - setup.cpuSpent();
    checks.expect(text.str() == golden,
                  "bench-cold report differs from " + opt.golden);
    std::vector<RunResult> rb, rf;
    std::uint64_t reqId = 1000;
    for (const std::string &w : workloadNames())
        for (const ArchMode m : {ArchMode::Baseline, ArchMode::GScalarFull}) {
            ArchConfig c = cfg;
            c.mode = m;
            Scope span(log, "engine.submit", ++reqId);
            (m == ArchMode::Baseline ? rb : rf)
                .push_back(eng.submit(w, c).get());
        }
    const EngineSnapshot snap = eng.snapshot();
    const DiskCacheStats disk = eng.diskCache()->stats();
    std::cerr << "gsbench: pass wall " << wall << " s, cpu " << cpu
              << " s\n";

    checks.attempted += snap.cache.misses + snap.cache.hits;
    checks.failed += snap.cache.runFailures;
    checks.expect(snap.cache.runFailures == 0, "bench-cold had failed runs");
    if (!opt.trace)
        e2e["setup_s"] = setup.fastest();
    e2e["wall_s"] = wall;
    e2e["cpu_s"] = cpu;
    e2e["sim_cycles_per_s"] = double(snap.simCycles) / wall;
    e2e["warp_insts_per_s"] = double(snap.warpInsts) / wall;
    e2e["latency_p90_ms.lo"] = e2e["latency_p90_ms.hi"] =
        gsb::percentile(sectionMs, 90);
    putModel(e2e, modelMeans(rb, rf));

    if (!opt.trace)
        return;
    double simulate = 0, load = 0, store = 0;
    for (const PhaseTimers::Entry &e : snap.phases) {
        if (e.name == "simulate")
            simulate = e.seconds;
        else if (e.name == "disk-cache-load")
            load = e.seconds;
        else if (e.name == "disk-cache-store")
            store = e.seconds;
    }
    const CacheStats &c = snap.cache;
    const std::uint64_t sims = c.misses - c.diskHits;
    layer["sim.launch_ms"] = simulate * 1e3;
    layer["sim.ns_per_cycle"] = simulate * 1e9 / double(snap.simCycles);
    layer["sim.ns_per_warp_inst"] = simulate * 1e9 / double(snap.warpInsts);
    layer["engine.utilization"] =
        gsb::engineUtilization(simulate, jobs, wall);
    for (std::size_t i = 0; i < selected.size(); ++i)
        layer["engine.experiment_ms." + std::string(selected[i]->name)] =
            expMs[i];
    layer["engine.peak_queue"] = double(snap.peakQueueDepth);
    layer["engine.memo_hit_ratio"] =
        double(c.hits) / double(c.hits + c.misses);
    layer["engine.cpu_per_run_s"] = sims ? simulate / double(sims) : 0;
    layer["engine.retries"] = double(c.runRetries);
    layer["store.load_ms"] = load * 1e3;
    layer["store.store_ms"] = store * 1e3;
    layer["store.hits"] = double(disk.hits);
    layer["store.stores"] = double(disk.stores);
    layer["store.rejects"] = double(disk.rejects);
    const auto [ser, de] = storeProbeUs(rb.front());
    layer["store.serialize_us"] = ser;
    layer["store.deserialize_us"] = de;
    // One traced pass only (a second untraced one would double the run):
    // estimate the overhead from the span count and per-span cost.
    layer["trace.overhead_pct"] = double(log.spans().size()) *
                                  spanCostNs() / (wall * 1e9) * 100;
    writeSpans(opt, log);
}

// ---- serve-mixed ---------------------------------------------------------

/** One request of the serving mix. */
struct ServeKey
{
    std::string workload;
    ArchConfig cfg;
    std::string id() const
    {
        return workload + "/" + std::string(archModeName(cfg.mode)) + "/" +
               std::to_string(cfg.seed);
    }
};

/** Phases 0 and 1 are the fixed rates lo and hi; the rest the ladder. */
constexpr std::size_t kFixedRatePhases = 2;

struct ServeRequest
{
    std::int64_t dueNs = 0; ///< from the phase start
    gsb::ReqClass cls = gsb::ReqClass::Fresh;
    std::size_t key = 0; ///< index into the key table
};

struct ServePhase
{
    std::string name;
    double rate = 0;
    std::vector<ServeRequest> reqs;
};

/** Client-side record of one request. */
struct ServeOutcome
{
    double latencyMs = 0; ///< from the due time to the response
    double lateMs = 0;    ///< from the due time to a free connection
    bool ok = false;
};

/**
 * The serving traffic: fixed rates lo and hi, plus (traced run) a rate
 * ladder above them, each phase with Poisson arrivals and an exact third
 * per class.
 * Fresh and disk keys come in (baseline, gscalar) pairs on one input
 * seed, so the model metrics can be formed over the pairs.
 */
struct ServePlan
{
    std::vector<ServeKey> keys;
    std::vector<std::size_t> diskKeys; ///< warmed into the disk cache
    std::vector<ServePhase> phases;
    std::size_t uniqueFresh = 0;
};

/**
 * The rates lo and hi split --seconds; the traced run appends the rate
 * ladder, whose steps are too short for the p90 crossing to repeat
 * within an end-to-end bound.
 */
ServePlan
makeServePlan(std::uint64_t seed, double seconds, bool withLadder)
{
    constexpr std::int64_t kSettleNs = 1'000'000'000;
    constexpr double kStepSeconds = 2;
    struct PhaseSpec
    {
        const char *name;
        double rate, seconds;
    };
    std::vector<PhaseSpec> spec = {{"lo", 10, seconds / 2},
                                   {"hi", 15, seconds / 2}};
    if (withLadder)
        spec.insert(spec.end(), {{"step3", 32, kStepSeconds},
                                 {"step4", 45, kStepSeconds},
                                 {"step5", 64, kStepSeconds},
                                 {"step6", 90, kStepSeconds}});
    ServePlan plan;
    auto newKey = [&](std::size_t pair, std::size_t idx,
                      std::uint64_t salt) {
        ServeKey k;
        k.workload = kServeWorkloads[pair % kServeWorkloads.size()];
        k.cfg = modeConfig(idx % 2 ? ArchMode::GScalarFull
                                   : ArchMode::Baseline,
                           inputSeed(seed, salt + pair));
        plan.keys.push_back(k);
        return plan.keys.size() - 1;
    };
    // The disk cache is warmed with a pool of a fixed size, half again
    // the disk requests the hi phase expects, so it holds as many entries
    // whatever the seed. A phase that needs more grows it.
    const auto pool = 2 * std::size_t(std::ceil(spec[1].rate *
                                                spec[1].seconds / 3 * 0.75));
    for (std::size_t n = 0; n < pool; ++n)
        plan.diskKeys.push_back(newKey(n / 2, n, 0));
    gsb::Rng rng(gsb::mix64(seed ^ 0x5e7e));
    for (std::size_t p = 0; p < spec.size(); ++p) {
        ServePhase ph;
        ph.name = spec[p].name;
        ph.rate = spec[p].rate;
        const std::vector<gsb::Arrival> arrivals = gsb::makeSchedule(
            gsb::mix64(seed + p), spec[p].rate, spec[p].seconds);
        std::vector<std::size_t> fresh;
        std::vector<std::int64_t> freshDue;
        std::size_t nDisk = 0, nDup = 0;
        for (const gsb::Arrival &a : arrivals) {
            ServeRequest r{a.dueNs, a.cls, 0};
            if (a.cls == gsb::ReqClass::Fresh) {
                const std::size_t i = fresh.size();
                r.key = newKey(i / 2, i, (p + 1) << 32);
                fresh.push_back(r.key);
                freshDue.push_back(a.dueNs);
            } else if (a.cls == gsb::ReqClass::Dup) {
                // At the fixed rates every other dup repeats the latest
                // fresh request, which is often still in flight
                // (coalescing), and the rest repeat one due at least
                // kSettleNs earlier (a memo hit). On the ladder a dup
                // repeats one of the last three fresh requests.
                std::size_t n = fresh.size();
                if (p < kFixedRatePhases && nDup++ % 2 == 0) {
                    r.key = fresh[n - 1];
                } else if (p < kFixedRatePhases) {
                    while (n > 1 && freshDue[n - 1] > a.dueNs - kSettleNs)
                        --n;
                    r.key = fresh[rng.below(n)];
                } else {
                    const std::size_t k = std::min<std::size_t>(3, n);
                    r.key = fresh[n - 1 - rng.below(k)];
                }
            } else {
                // Disk keys are shared by every phase; the engine's
                // memory cache is cleared between phases.
                if (nDisk == plan.diskKeys.size())
                    plan.diskKeys.push_back(newKey(nDisk / 2, nDisk, 0));
                r.key = plan.diskKeys[nDisk++];
            }
            ph.reqs.push_back(r);
        }
        plan.uniqueFresh += fresh.size();
        plan.phases.push_back(std::move(ph));
    }
    return plan;
}

/** Percentile of a daemon latency histogram, interpolated in-bucket. */
double
histogramPercentile(const LatencyHistogram &h, double q)
{
    if (h.count() == 0)
        return 0;
    const double target = q / 100.0 * double(h.count());
    double cum = 0, lower = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
        const double n = double(h.buckets()[i]);
        const double upper =
            std::min(LatencyHistogram::bucketBound(i), h.maxSeconds());
        if (n > 0 && cum + n >= target)
            return lower + (upper - lower) * (target - cum) / n;
        cum += n;
        lower = std::min(upper, LatencyHistogram::bucketBound(i));
    }
    return h.maxSeconds();
}

/**
 * Play one phase open-loop against the daemon: a generator thread
 * enqueues each request at its due time; @p clients.size() workers, one
 * connection each, take the oldest waiting request. A request that finds
 * every connection busy waits, and the wait counts in its latency.
 */
std::vector<ServeOutcome>
playPhase(const ServePhase &ph, const ServePlan &plan,
          std::vector<std::unique_ptr<GscalarClient>> &clients,
          const std::vector<std::uint64_t> &refDigest, SpanLog &log,
          std::uint64_t reqBase, std::size_t &backlogMax, Checks &checks)
{
    std::vector<ServeOutcome> out(ph.reqs.size());
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::pair<std::size_t, std::int64_t>> queue; // (req, due)
    bool done = false;
    std::vector<std::string> mismatches;

    auto worker = [&](GscalarClient &client) {
        for (;;) {
            std::size_t i;
            std::int64_t due;
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return done || !queue.empty(); });
                if (queue.empty())
                    return;
                std::tie(i, due) = queue.front();
                queue.pop_front();
            }
            const std::int64_t picked = SpanLog::nowNs();
            const ServeKey &k = plan.keys[ph.reqs[i].key];
            std::string err;
            std::optional<RunResult> r;
            {
                Scope span(log, "client.run", reqBase + i);
                r = client.run(k.workload, k.cfg, &err);
            }
            const std::int64_t end = SpanLog::nowNs();
            ServeOutcome &o = out[i];
            o.latencyMs = double(end - due) / 1e6;
            o.lateMs = double(picked - due) / 1e6;
            o.ok = r.has_value();
            if (log.enabled())
                log.add({"gen.wait", due, picked, -1, reqBase + i});
            if (!r) {
                std::lock_guard<std::mutex> lock(mu);
                mismatches.push_back(k.id() + " failed: " + err);
            } else if (resultDigest(*r) != refDigest[ph.reqs[i].key]) {
                std::lock_guard<std::mutex> lock(mu);
                mismatches.push_back(k.id() +
                                     " differs from runWorkload");
                o.ok = false;
            }
        }
    };
    std::vector<std::thread> threads;
    for (auto &c : clients)
        threads.emplace_back(worker, std::ref(*c));

    const std::int64_t start = SpanLog::nowNs();
    for (std::size_t i = 0; i < ph.reqs.size(); ++i) {
        const std::int64_t due = start + ph.reqs[i].dueNs;
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(due)));
        std::lock_guard<std::mutex> lock(mu);
        queue.emplace_back(i, due);
        backlogMax = std::max(backlogMax, queue.size());
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        done = true;
    }
    cv.notify_all();
    for (std::thread &t : threads)
        t.join();
    for (const std::string &m : mismatches)
        checks.expect(false, "serve-mixed " + m);
    return out;
}

void
runServeMixed(const Options &opt, Values &e2e, Values &layer,
              Checks &checks)
{
    setSimThreads(1);
    const unsigned jobs = workloadJobs(opt.workload);
    const unsigned conns = hostThreads();
    const ServePlan plan = makeServePlan(opt.seed, opt.seconds, opt.trace);

    // Oracle: a direct runWorkload of every key, before the daemon runs.
    std::vector<RunResult> refs(plan.keys.size());
    parallelFor(plan.keys.size(), hostThreads(), [&](std::size_t i) {
        refs[i] = runWorkload(plan.keys[i].workload, plan.keys[i].cfg);
    });
    std::vector<std::uint64_t> refDigest;
    for (const RunResult &r : refs) {
        checks.expect(r.ok(), "reference run failed: " + r.error);
        refDigest.push_back(resultDigest(r));
    }

    // The disk tier holds the disk-class results, written once. Writing
    // them is preparing the inputs, not starting the daemon, and is left
    // out of the timed set-up: its time swung twofold with the host's
    // file-system load from run to run.
    const std::string cacheDir = opt.workDir + "/serve-cache";
    {
        DiskRunCache warm(cacheDir);
        for (const std::size_t k : plan.diskKeys)
            checks.expect(warm.store(plan.keys[k].workload, plan.keys[k].cfg,
                                     refs[k]),
                          "disk-cache warm-up store failed");
    }

    // Set-up: suite preparation, then a daemon on a fresh socket over
    // that disk cache, and the client connections. Members are declared
    // so that users go first: the server holds a reference to its engine.
    struct Daemon
    {
        std::unique_ptr<ExperimentEngine> engine;
        std::unique_ptr<GscalarServer> server;
        std::vector<std::unique_ptr<GscalarClient>> clients;
    };
    int serial = 0;
    SpanLog off(false);
    auto startDaemon = [&](Daemon &d) {
        const double t0 = nowS();
        prepareSuite(inputSeed(opt.seed), off);
        const std::string tag = std::to_string(serial++);
        d.engine = std::make_unique<ExperimentEngine>(jobs);
        d.engine->setDiskCache(std::make_unique<DiskRunCache>(cacheDir));
        GscalarServer::Options so;
        so.socketPath = opt.workDir + "/d" + tag + ".sock";
        d.server = std::make_unique<GscalarServer>(*d.engine, so);
        std::string err;
        checks.expect(d.server->start(&err), "gscalard start: " + err);
        ClientOptions co;
        co.attempts = 1;
        for (unsigned i = 0; i < conns; ++i) {
            d.clients.push_back(
                std::make_unique<GscalarClient>(so.socketPath, co));
            checks.expect(d.clients.back()->ping(&err),
                          "gscalard ping: " + err);
        }
        return nowS() - t0;
    };
    Daemon served;
    startDaemon(served);

    // Untraced, set-ups of spare daemons are made before each phase and
    // after the last, while the served one is idle, and are left out of
    // the phases' times.
    constexpr int kSetupsPerGap = 8;
    SetupTimer setup([&] {
        Daemon spare;
        return startDaemon(spare);
    });
    SpanLog log(opt.trace);
    std::vector<std::vector<ServeOutcome>> outcomes;
    std::size_t backlogMax = 0;
    const double c0 = cpuSeconds(), t0 = nowS();
    for (std::size_t p = 0; p < plan.phases.size(); ++p) {
        if (!opt.trace)
            setup.sample(kSetupsPerGap);
        outcomes.push_back(playPhase(plan.phases[p], plan, served.clients,
                                     refDigest, log, (p + 1) << 20,
                                     backlogMax, checks));
        // Disk-class keys must miss memory again in the next phase.
        served.engine->clearCache();
    }
    const double wall = nowS() - t0 - setup.wallSpent();
    const double cpu = cpuSeconds() - c0 - setup.cpuSpent();
    const DaemonStats st = served.server->stats();
    const EngineSnapshot snap = served.engine->snapshot();
    const DiskCacheStats disk = served.engine->diskCache()->stats();
    served.server->stop();
    if (!opt.trace) {
        setup.sample(kSetupsPerGap);
        e2e["setup_s"] = setup.fastest();
    }

    // Latency per phase; failures count as missing any limit.
    auto latencies = [&](std::size_t p) {
        std::vector<double> v;
        for (const ServeOutcome &o : outcomes[p])
            v.push_back(o.ok ? o.latencyMs : 1e12);
        return v;
    };
    std::vector<double> p90;
    for (std::size_t p = 0; p < plan.phases.size(); ++p) {
        const std::vector<double> v = latencies(p);
        p90.push_back(gsb::percentile(v, 90));
        std::vector<double> late;
        for (const ServeOutcome &o : outcomes[p]) {
            ++checks.attempted;
            checks.failed += !o.ok;
            late.push_back(o.lateMs);
        }
        std::cerr << "gsbench: phase " << plan.phases[p].name << " at "
                  << plan.phases[p].rate << "/s: " << v.size()
                  << " requests, p50 " << gsb::percentile(v, 50)
                  << " ms, p90 " << p90.back() << " ms"
                  << (gsb::percentileSupported(v.size(), 90)
                          ? ""
                          : " (fewer than 10 samples beyond it)")
                  << ", late p90 " << gsb::percentile(late, 90) << " ms\n";
    }
    e2e["latency_p90_ms.lo"] = p90[0];
    e2e["latency_p90_ms.hi"] = p90[1];
    e2e["wall_s"] = wall;
    e2e["cpu_s"] = cpu;
    e2e["sim_cycles_per_s"] = double(snap.simCycles) / wall;
    e2e["warp_insts_per_s"] = double(snap.warpInsts) / wall;

    // Model metrics over the plan's (baseline, gscalar) key pairs.
    std::vector<RunResult> base, full;
    for (std::size_t i = 0; i + 1 < plan.keys.size(); ++i)
        if (plan.keys[i].cfg.mode == ArchMode::Baseline &&
            plan.keys[i + 1].cfg.mode == ArchMode::GScalarFull &&
            plan.keys[i].cfg.seed == plan.keys[i + 1].cfg.seed &&
            plan.keys[i].workload == plan.keys[i + 1].workload) {
            base.push_back(refs[i]);
            full.push_back(refs[i + 1]);
        }
    putModel(e2e, modelMeans(base, full));

    const std::uint64_t computed =
        snap.cache.misses - snap.cache.diskHits;
    checks.expect(computed <= plan.uniqueFresh,
                  "daemon computed " + std::to_string(computed) +
                      " runs for " + std::to_string(plan.uniqueFresh) +
                      " unique fingerprints");
    if (!opt.trace)
        return;

    std::map<gsb::ReqClass, std::vector<double>> byClass;
    std::vector<double> late;
    for (std::size_t p = 0; p < plan.phases.size(); ++p)
        for (std::size_t i = 0; i < outcomes[p].size(); ++i) {
            // Per-class latency at the two fixed rates only.
            if (outcomes[p][i].ok && p < kFixedRatePhases)
                byClass[plan.phases[p].reqs[i].cls].push_back(
                    outcomes[p][i].latencyMs);
            late.push_back(outcomes[p][i].lateMs);
        }
    LatencyHistogram server;
    {
        std::array<std::uint64_t, LatencyHistogram::kBuckets> b{};
        std::uint64_t n = 0;
        double total = 0, mx = 0;
        for (const WorkloadLatency &w : st.workloads) {
            for (std::size_t i = 0; i < b.size(); ++i)
                b[i] += w.latency.buckets()[i];
            n += w.latency.count();
            total += w.latency.totalSeconds();
            mx = std::max(mx, w.latency.maxSeconds());
        }
        server.restore(b, n, total, mx);
    }
    double simulate = 0, load = 0, store = 0;
    for (const PhaseTimers::Entry &e : snap.phases) {
        if (e.name == "simulate")
            simulate = e.seconds;
        else if (e.name == "disk-cache-load")
            load = e.seconds;
        else if (e.name == "disk-cache-store")
            store = e.seconds;
    }
    layer["serve.computed"] = double(computed);
    layer["serve.unique"] = double(plan.uniqueFresh);
    layer["serve.coalesce_followers"] = double(st.coalesceFollowers);
    layer["serve.queue_sheds"] = double(st.queueSheds);
    layer["serve.batch_peak"] = double(st.batchPeak);
    layer["serve.server_p50_ms"] = histogramPercentile(server, 50) * 1e3;
    layer["serve.reactor_loop_p90_us"] =
        histogramPercentile(st.reactorLoop, 90) * 1e6;
    layer["serve.fresh_p50_ms"] =
        gsb::percentile(byClass[gsb::ReqClass::Fresh], 50);
    layer["serve.dup_p50_ms"] =
        gsb::percentile(byClass[gsb::ReqClass::Dup], 50);
    layer["serve.disk_p50_ms"] =
        gsb::percentile(byClass[gsb::ReqClass::Disk], 50);
    // The mix's median sits at the top of the two sub-millisecond
    // classes, so host jitter moves it by a quarter from run to run: it
    // is reported here, without a bound, rather than end to end.
    layer["serve.latency_p50_ms.lo"] = gsb::percentile(latencies(0), 50);
    layer["serve.latency_p50_ms.hi"] = gsb::percentile(latencies(1), 50);

    // Highest rate meeting the p90 limit, with lo and hi as the ladder's
    // first steps: the first step over the limit and the step before it,
    // interpolated in log(p90), which grows roughly exponentially once a
    // backlog builds.
    constexpr double kSloMs = 400;
    double maxRate = plan.phases[0].rate * kSloMs / p90[0];
    for (std::size_t p = 0; p < plan.phases.size(); ++p) {
        const double rate = plan.phases[p].rate;
        if (p90[p] > kSloMs) {
            if (p > 0)
                maxRate = plan.phases[p - 1].rate +
                          (rate - plan.phases[p - 1].rate) *
                              std::log(kSloMs / p90[p - 1]) /
                              std::log(p90[p] / p90[p - 1]);
            break;
        }
        maxRate = rate * std::min(2.0, kSloMs / p90[p]);
    }
    layer["serve.max_rate_at_slo"] = maxRate;
    layer["gen.late_p90_ms"] = gsb::percentile(late, 90);
    layer["gen.backlog_max"] = double(backlogMax);
    layer["engine.utilization"] =
        gsb::engineUtilization(simulate, jobs, wall);
    layer["engine.peak_queue"] = double(snap.peakQueueDepth);
    const CacheStats &c = snap.cache;
    layer["engine.memo_hit_ratio"] =
        double(c.hits) / double(std::max<std::uint64_t>(1, c.hits + c.misses));
    layer["engine.cpu_per_run_s"] = computed ? simulate / double(computed) : 0;
    layer["engine.retries"] = double(c.runRetries);
    layer["store.load_ms"] = load * 1e3;
    layer["store.store_ms"] = store * 1e3;
    layer["store.hits"] = double(disk.hits);
    layer["store.stores"] = double(disk.stores);
    layer["store.rejects"] = double(disk.rejects);
    const auto [ser, de] = storeProbeUs(refs.front());
    layer["store.serialize_us"] = ser;
    layer["store.deserialize_us"] = de;
    layer["trace.overhead_pct"] = double(log.spans().size()) *
                                  spanCostNs() / (wall * 1e9) * 100;
    writeSpans(opt, log);
}

// ---- main ----------------------------------------------------------------

void
printMetricCatalogue()
{
    auto list = [](const std::vector<MetricDef> &defs, bool bound) {
        std::string s = "[";
        for (std::size_t i = 0; i < defs.size(); ++i) {
            s += (i ? ",\n  " : "\n  ");
            s += "{\"name\": " + gsb::jsonString(defs[i].name) +
                 ", \"unit\": " + gsb::jsonString(defs[i].unit) +
                 ", \"better\": " + gsb::jsonString(defs[i].better);
            if (bound)
                s += ", \"bound\": " + gsb::jsonNumber(defs[i].bound);
            s += "}";
        }
        return s + "\n]";
    };
    std::cout << "{\"end_to_end\": " << list(endToEndMetrics(), true)
              << ",\n\"per_layer\": " << list(perLayerMetrics(), false)
              << "}\n";
}

int
usage()
{
    std::cerr << "usage: gsbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --golden FILE\n"
                 "               [--digest-dir DIR] [--trace-dir DIR]\n"
                 "       gsbench --list-metrics\n"
                 "workloads: suite-serial bench-cold "
                 "serve-mixed\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--list-metrics") {
            printMetricCatalogue();
            return 0;
        }
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                opt.workload = v;
            else if (a == "--seed")
                opt.seed = std::stoull(v), haveSeed = true;
            else if (a == "--seconds")
                opt.seconds = std::stod(v), haveSeconds = true;
            else if (a == "--trace")
                opt.trace = v == "1", haveTrace = v == "0" || v == "1";
            else if (a == "--work-dir")
                opt.workDir = v;
            else if (a == "--golden")
                opt.golden = v;
            else if (a == "--digest-dir")
                opt.digestDir = v;
            else if (a == "--trace-dir")
                opt.traceDir = v;
            else
                return usage();
        } catch (const std::exception &) {
            return usage();
        }
    }
    if (opt.workload.empty() || !haveSeed || !haveSeconds || !haveTrace ||
        opt.workDir.empty() || opt.golden.empty() || opt.seconds <= 0)
        return usage();

    scrubEnvironment();
    std::filesystem::create_directories(opt.workDir);
    setenv("GS_CACHE_DIR", (opt.workDir + "/gs-cache").c_str(), 1);

    std::cout << "{\"host\": {\"nproc\": " << hostThreads()
              << ", \"cpu\": " << gsb::jsonString(cpuModel())
              << ", \"compiler\": " << gsb::jsonString(GSB_COMPILER)
              << ", \"build_type\": " << gsb::jsonString(GSB_BUILD_TYPE)
              << ", \"gs_simd\": "
              << gsb::jsonString(simdLevelName(activeSimdLevel()))
              << ", \"jobs\": " << workloadJobs(opt.workload)
              << ", \"sim_threads\": 1";
    // The traced suite-serial run adds a pass at --sim-threads = nproc.
    if (opt.trace && opt.workload == "suite-serial")
        std::cout << ", \"sim_threads_traced_pass\": " << hostThreads();
    std::cout << ", \"workload\": " << gsb::jsonString(opt.workload)
              << ", \"seed\": " << opt.seed << "}}" << std::endl;

    Values e2e, layer;
    Checks checks;
    if (opt.workload == "suite-serial")
        runSuite(opt, e2e, layer, checks);
    else if (opt.workload == "bench-cold")
        runBenchCold(opt, e2e, layer, checks);
    else if (opt.workload == "serve-mixed")
        runServeMixed(opt, e2e, layer, checks);
    else
        return usage();

    e2e["peak_rss_mb"] = peakRssMb();
    e2e["ok_frac"] =
        1.0 - gsb::failedFrac(checks.failed, checks.attempted);
    if (opt.trace) {
        layer["failed_frac"] =
            gsb::failedFrac(checks.failed, checks.attempted);
        layer["compress.classify_ns"] = classifyProbeNs(opt.seed);
    }
    checks.expect(checks.attempted > 0, "no operation was attempted");

    const std::vector<MetricDef> &defs =
        opt.trace ? perLayerMetrics() : endToEndMetrics();
    const Values &vals = opt.trace ? layer : e2e;
    std::string json;
    for (const MetricDef &d : defs) {
        const auto it = vals.find(d.name);
        const double v = it == vals.end() ? 0.0 : it->second;
        if (!opt.trace)
            checks.expect(it != vals.end() && std::isfinite(v) && v != 0,
                          "end-to-end metric " + d.name + " is missing");
        std::cout << "  " << d.name << " = " << gsb::jsonNumber(v) << " "
                  << d.unit;
        if (d.name == "model.ipc_per_watt_gain")
            std::cout << "  (paper " << kPaperIpcPerWattGain << ")";
        if (d.name == "model.rf_power_ratio")
            std::cout << "  (paper " << kPaperRfPowerRatio << ")";
        std::cout << "\n";
        json += (json.empty() ? "" : ", ") + gsb::jsonString(d.name) +
                ": {\"value\": " + gsb::jsonNumber(v) +
                ", \"unit\": " + gsb::jsonString(d.unit) + "}";
    }
    if (!opt.trace)
        std::cout << "  model.* are the modelled design's suite means; "
                     "the paper's averages are their only reference, and "
                     "the benchmark seed's inputs are held-out data.\n";
    std::cout << "{\"correct\": " << (checks.ok ? "true" : "false")
              << ", \"attempted\": " << checks.attempted
              << ", \"failed\": " << checks.failed << ", \"metrics\": {"
              << json << "}}" << std::endl;
    return checks.ok ? 0 : 1;
}
