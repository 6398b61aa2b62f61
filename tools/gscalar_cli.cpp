/**
 * @file
 * Command-line driver for the G-Scalar simulator. Subcommands are
 * dispatched through a single command table (name, summary, detailed
 * help, handler) so `gscalar --help` and per-command `gscalar <cmd>
 * --help` are generated from one source of truth instead of an if/else
 * chain.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "gen/fuzz.hpp"
#include "gen/generator.hpp"
#include "harness/engine.hpp"
#include "harness/experiments.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "obs/result.hpp"
#include "obs/stats.hpp"
#include "power/energy_model.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/gpu.hpp"
#include "sim/trace.hpp"
#include "sweep/campaign.hpp"

#ifndef GS_VERSION
#define GS_VERSION "0.0.0-dev"
#endif

using namespace gs;

namespace
{

/** One CLI subcommand: the dispatch table entry. */
struct Command
{
    const char *name;
    const char *synopsis; ///< argument part of the usage line
    const char *summary;  ///< one line for the global usage listing
    const char *help;     ///< body of `gscalar <name> --help`
    int (*run)(int argc, char **argv);
};

const std::vector<Command> &commands();

const Command *
findCommand(const std::string &name)
{
    for (const Command &c : commands())
        if (name == c.name)
            return &c;
    return nullptr;
}

void
printUsage(std::ostream &os)
{
    os << "usage: gscalar <command> [options]\n\ncommands:\n";
    for (const Command &c : commands())
        os << "  " << std::left << std::setw(11) << c.name
           << c.summary << "\n";
    os << "\n"
          "  gscalar <command> --help shows the command's options.\n"
          "  --jobs/-j N (or GS_JOBS=N) sets the simulation worker\n"
          "  pool size (--sim-threads N / GS_SIM_THREADS=N are\n"
          "  accepted for one release and ignored, with a warning);\n"
          "  --codec NAME (or GS_CODEC=NAME) selects the RF\n"
          "  compression codec (byte-mask, bdi, static-profile,\n"
          "  rrcd; default byte-mask); --cache\n"
          "  (or GS_CACHE_DIR=DIR) persists runs on disk;\n"
          "  GS_TRACE=path[:1/N] streams a sampled JSONL\n"
          "  event trace; GS_VERBOSE=1 prints per-run timing lines;\n"
          "  GS_FAULT=site:kind:rate[:seed] (or --fault) injects\n"
          "  deterministic faults (see docs/RELIABILITY.md and\n"
          "  docs/PERFORMANCE.md).\n"
          "modes:";
    for (const ArchMode m : kArchModes)
        os << " " << archModeName(m);
    os << "\nexperiments (see `gscalar bench --list`):";
    int col = 999;
    for (const Experiment &e : experiments()) {
        const int n = int(std::strlen(e.name)) + 1;
        if (col + n > 64) {
            os << "\n      ";
            col = 6;
        }
        os << " " << e.name;
        col += n;
    }
    os << "\n";
}

int
usage()
{
    printUsage(std::cerr);
    return 2;
}

void
printCommandHelp(const Command &c, std::ostream &os)
{
    os << "usage: gscalar " << c.name;
    if (c.synopsis[0] != '\0')
        os << " " << c.synopsis;
    os << "\n\n" << c.help;
}

/** Apply config knob @p knob from flag @p flag; a bad value is fatal. */
void
applyKnobFlag(ArchConfig &cfg, const std::string &flag,
              std::string_view knob, const std::string &value)
{
    if (const std::optional<std::string> why =
            applyConfigKnob(cfg, knob, value);
        why && !why->empty())
        GS_FATAL("invalid ", flag, " value: ", *why);
}

struct Options
{
    /** Runs start from the --codec / $GS_CODEC selection (validated
     *  eagerly in main(); ArchConfig itself defaults to byte-mask). */
    Options() { cfg.codec = defaultCodecId(); }

    ArchConfig cfg;
    bool csv = false;
    bool json = false;
    bool power = false;
    bool stats = false;  ///< submit: query daemon counters instead
    std::string socket;  ///< submit: daemon socket path override
    std::string connect; ///< submit: TCP daemon target ("host:port")
    std::uint32_t priority = kDefaultPriority; ///< admission band
};

/** Parse trailing --flag [value] options into @p opt. */
void
parseFlags(int argc, char **argv, int first, Options &opt)
{
    for (int i = first; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&](const char *what) -> std::string {
            if (i + 1 >= argc)
                GS_FATAL(what, " needs a value");
            return argv[++i];
        };
        if (a == "--mode" || a == "--warp" || a == "--sms" ||
            a == "--seed" || a == "--codec") {
            applyKnobFlag(opt.cfg, a, a.substr(2), need(a.c_str()));
            if (a == "--codec")
                setDefaultCodecId(opt.cfg.codec);
        } else if (a == "--csv")
            opt.csv = true;
        else if (a == "--json")
            opt.json = true;
        else if (a == "--power")
            opt.power = true;
        else if (a == "--stats")
            opt.stats = true;
        else if (a == "--socket")
            opt.socket = need("--socket");
        else if (a == "--connect") {
            // GS_JOBS idiom: strict parse now, never a lazy failure
            // at connect time.
            const std::string v = need("--connect");
            std::string why;
            if (!parseConnectTarget(v, &why))
                GS_FATAL("invalid --connect value: ", why);
            opt.connect = v;
        } else if (a == "--priority") {
            const std::string v = need("--priority");
            const std::optional<std::uint64_t> p =
                parseDecimal(v, 0, kNumPriorities - 1);
            if (!p)
                GS_FATAL("invalid --priority value '", v,
                         "' (want an integer in [0, ",
                         kNumPriorities - 1, "])");
            opt.priority = std::uint32_t(*p);
        } else if (const std::optional<int> n = processFlagValues(a)) {
            // The process-wide rest (--codec was taken above as a
            // config knob); run/suite/submit apply them here.
            const std::string v =
                *n ? need(a == "-j" ? "--jobs" : a.c_str()) : "";
            if (a == "--cache") {
                setDefaultCacheEnabled(true);
            } else if (a == "--sim-threads") {
                ignoreSimThreads(true);
            } else if (a == "--jobs" || a == "-j") {
                const std::optional<unsigned> jobs = parseJobsValue(v);
                if (!jobs)
                    GS_FATAL("invalid ", a, " value '", v,
                             "' (want an integer in [1, 4096])");
                setDefaultJobs(*jobs);
            } else {
                const std::string spec = *n ? v : a.substr(8);
                std::string ferr;
                if (!faultInjector().configure(spec, &ferr))
                    GS_FATAL("--fault='", spec, "': ", ferr);
            }
        } else
            GS_FATAL("unknown option '", a, "'");
    }
    // Here, not in a worker thread, where a fatal exit aborts instead.
    opt.cfg.validate();
}

/** Print the reliability counters to stderr when anything fired;
 *  stdout stays byte-identical to a fault-free run. */
void
printHealthSummary()
{
    const std::string h = healthSummary();
    if (!h.empty())
        stderrSink().writeLine(h);
}

/** Shared run/submit output: plain, --csv, --json, optional --power. */
void
printResult(const RunResult &r, const Options &opt)
{
    if (opt.csv) {
        std::cout << csvHeader() << "\n" << csvRow(r) << "\n";
    } else if (opt.json) {
        std::cout << toJson(r);
    } else {
        std::cout << r.workload << " @ " << archModeName(r.mode)
                  << ": cycles=" << r.ev.cycles
                  << " IPC=" << r.ev.ipc()
                  << " IPC/W=" << r.power.ipcPerWatt() << "\n";
    }
    if (opt.power)
        std::cout << r.power.describe();
}

int
cmdRun(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    Options opt;
    parseFlags(argc, argv, 3, opt);

    // Through the shared engine so --cache / GS_CACHE_DIR can answer
    // repeat invocations from disk instead of re-simulating.
    const RunResult r = defaultEngine().run(argv[2], opt.cfg);
    if (!r.ok())
        GS_FATAL("run ", r.workload, " failed: ", r.error);
    printResult(r, opt);
    std::cerr << throughputSummary({r}) << "\n"
              << defaultEngine().statsSummary() << "\n";
    printHealthSummary();
    return 0;
}

int
cmdSuite(int argc, char **argv)
{
    Options opt;
    parseFlags(argc, argv, 2, opt);

    const std::vector<RunResult> results =
        defaultEngine().runSuite(opt.cfg);

    if (opt.csv) {
        std::cout << toCsv(results);
    } else {
        for (const RunResult &r : results) {
            if (!r.ok()) {
                std::cout << r.workload << ": FAILED (" << r.error
                          << ")\n";
                continue;
            }
            std::cout << r.workload << ": cycles=" << r.ev.cycles
                      << " IPC=" << r.ev.ipc()
                      << " IPC/W=" << r.power.ipcPerWatt() << "\n";
        }
    }
    std::cerr << throughputSummary(results) << "\n"
              << defaultEngine().statsSummary() << "\n";
    printHealthSummary();
    return 0;
}

int
cmdBench(int argc, char **argv)
{
    initHarness(argc, argv); // --jobs/-j/--cache for the engine

    ResultFormat format = ResultFormat::Text;
    bool list = false;
    std::vector<std::string> only;
    auto addOnly = [&only](const std::string &csv) {
        std::istringstream in(csv);
        std::string name;
        while (std::getline(in, name, ','))
            if (!name.empty())
                only.push_back(name);
    };
    auto setFormat = [&format](const std::string &v) {
        const std::optional<ResultFormat> f = parseResultFormat(v);
        if (!f)
            GS_FATAL("unknown --format '", v,
                     "' (want text, json or csv)");
        format = *f;
    };
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&](const char *what) -> std::string {
            if (i + 1 >= argc)
                GS_FATAL(what, " needs a value");
            return argv[++i];
        };
        if (a == "--list")
            list = true;
        else if (a.rfind("--only=", 0) == 0)
            addOnly(a.substr(7));
        else if (a == "--only")
            addOnly(need("--only"));
        else if (a.rfind("--format=", 0) == 0)
            setFormat(a.substr(9));
        else if (a == "--format")
            setFormat(need("--format"));
        else if (const std::optional<int> n = processFlagValues(a))
            i += *n; // consumed by initHarness
        else
            GS_FATAL("unknown option '", a,
                     "' (see `gscalar bench --help`)");
    }

    if (list) {
        std::size_t nameW = 4, tagW = 3;
        for (const Experiment &e : experiments()) {
            nameW = std::max(nameW, std::strlen(e.name));
            tagW = std::max(tagW, std::strlen(e.tag));
        }
        for (const Experiment &e : experiments())
            std::cout << std::left << std::setw(int(nameW) + 2)
                      << e.name << std::setw(int(tagW) + 2) << e.tag
                      << e.description << "\n";
        return 0;
    }

    std::vector<const Experiment *> selected;
    if (only.empty()) {
        // The no-flag run is the golden reference sequence; opt-out
        // experiments (codec micro/shootout) need --only.
        for (const Experiment &e : experiments())
            if (e.inDefaultRun)
                selected.push_back(&e);
    } else {
        for (const std::string &name : only) {
            const Experiment *e = findExperiment(name);
            if (!e)
                GS_FATAL("unknown experiment '", name,
                         "' (see `gscalar bench --list`)");
            selected.push_back(e);
        }
    }

    const ArchConfig cfg = experimentConfig();
    const auto sink = makeResultSink(format, std::cout);
    for (const Experiment *e : selected)
        e->run(defaultEngine(), cfg, *sink);
    stderrSink().writeLine(defaultEngine().statsSummary());
    printHealthSummary();
    return 0;
}

int
cmdDisasm(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const Workload w = makeWorkload(argv[2]);
    for (const WorkloadLaunch &l : w.launches) {
        std::cout << l.kernel.disassemble() << "launch <<<" << l.dims.ctas
                  << ", " << l.dims.threadsPerCta << ">>>\n";
    }
    return 0;
}

int
cmdTrace(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    ArchConfig cfg;
    cfg.numSms = 1; // single SM keeps the interleaving readable
    unsigned lines = 120;
    for (int i = 3; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--mode" && i + 1 < argc)
            applyKnobFlag(cfg, a, "mode", argv[++i]);
        else if (a == "--lines" && i + 1 < argc) {
            const std::string v = argv[++i];
            const std::optional<std::uint64_t> n =
                parseDecimal(v, 0, UINT32_MAX);
            if (!n)
                GS_FATAL("invalid --lines value '", v,
                         "' (want an integer in [0, ", UINT32_MAX, "])");
            lines = unsigned(*n);
        } else
            GS_FATAL("unknown option '", a, "'");
    }

    const Workload w = makeWorkload(argv[2]);
    Gpu gpu(cfg);
    if (w.setup)
        w.setup(gpu.memory(), cfg.seed);

    std::ostringstream os;
    TextTracer tracer(os);
    gpu.setTracer(&tracer);
    gpu.launch(w.launches.front().kernel, w.launches.front().dims);

    // Print the first N lines of the trace.
    std::istringstream in(os.str());
    std::string line;
    for (unsigned n = 0; n < lines && std::getline(in, line); ++n)
        std::cout << line << "\n";
    return 0;
}

int
cmdExperiment(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    initHarness(argc, argv); // --jobs/-j for the experiment engine
    const ArchConfig cfg = experimentConfig();

    // One process may run several experiments ("fig1 fig8 fig9 ..."
    // or "all"): the shared run cache then simulates each (workload,
    // config) once across all of them.
    std::vector<std::string> names;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (const std::optional<int> n = processFlagValues(a)) {
            i += *n; // consumed by initHarness
            continue;
        }
        if (a == "all") {
            for (const Experiment &e : experiments())
                if (e.inDefaultRun)
                    names.push_back(e.name);
        } else {
            names.push_back(a);
        }
    }
    if (names.empty())
        return usage();
    for (const std::string &name : names) {
        const Experiment *e = findExperiment(name);
        if (!e)
            GS_FATAL("unknown experiment '", name,
                     "' (see `gscalar bench --list`)");
        std::cout << e->build(defaultEngine(), cfg).text << std::endl;
    }
    std::cerr << defaultEngine().statsSummary() << "\n";
    return 0;
}

int
cmdServe(int argc, char **argv)
{
    initHarness(argc, argv); // --jobs/--codec/--cache/--fault
    GscalarServer::Options sopt;
    int i = 2;
    if (const std::string err = parseServeFlags(argc, argv, i, sopt);
        !err.empty())
        GS_FATAL(err);
    if (i < argc)
        GS_FATAL("unknown option '", argv[i], "'");

    GscalarServer server(defaultEngine(), sopt);
    std::string err;
    if (!server.installSignalHandlers(&err) || !server.start(&err)) {
        std::cerr << "gscalard: " << err << "\n";
        return 1;
    }
    std::cerr << "gscalard: listening on " << server.socketPath();
    if (server.tcpPort() != 0)
        std::cerr << " and tcp port " << server.tcpPort();
    std::cerr << " (" << defaultEngine().jobs()
              << " worker(s); Ctrl-C to drain and exit)\n";
    server.wait();
    std::cerr << "gscalard: served " << server.requestsServed()
              << " request(s)\n"
              << defaultEngine().statsSummary() << "\n";
    printHealthSummary();
    return 0;
}

/** Render `gscalar submit --stats` output (text or --json). */
void
printDaemonStats(const DaemonStats &s, bool json)
{
    if (json) {
        std::ostringstream os;
        os << "{\"schema\": \"gscalar.stats.v1\""
           << ", \"uptime_seconds\": " << s.uptimeSeconds
           << ", \"requests_served\": " << s.requestsServed
           << ", \"active_connections\": " << s.activeConnections
           << ", \"jobs\": " << s.jobs
           << ", \"queue_depth\": " << s.queueDepth
           << ", \"peak_queue_depth\": " << s.peakQueueDepth
           << ", \"cache_hits\": " << s.cacheHits
           << ", \"cache_misses\": " << s.cacheMisses
           << ", \"disk_cache_hits\": " << s.diskCacheHits
           << ", \"disk_cache_stores\": " << s.diskCacheStores
           << ", \"sim_wall_seconds\": " << s.simWallSeconds
           << ", \"sim_cycles\": " << s.simCycles
           << ", \"warp_insts\": " << s.warpInsts
           << ", \"overloads\": " << s.overloads
           << ", \"idle_closes\": " << s.idleCloses
           << ", \"frame_rejects\": " << s.frameRejects
           << ", \"coalesce_leaders\": " << s.coalesceLeaders
           << ", \"coalesce_followers\": " << s.coalesceFollowers
           << ", \"batches\": " << s.batches
           << ", \"batch_peak\": " << s.batchPeak
           << ", \"queue_sheds\": " << s.queueSheds
           << ", \"queue_depths\": [" << s.queueDepths[0] << ", "
           << s.queueDepths[1] << ", " << s.queueDepths[2] << "]"
           << ", \"queue_peaks\": [" << s.queuePeaks[0] << ", "
           << s.queuePeaks[1] << ", " << s.queuePeaks[2] << "]"
           << ", \"reactor_loop_count\": " << s.reactorLoop.count()
           << ", \"reactor_loop_mean_seconds\": "
           << s.reactorLoop.meanSeconds()
           << ", \"reactor_loop_max_seconds\": "
           << s.reactorLoop.maxSeconds()
           << ", \"workloads\": [";
        bool first = true;
        for (const WorkloadLatency &wl : s.workloads) {
            if (!first)
                os << ", ";
            first = false;
            os << "{\"workload\": \"" << jsonEscape(wl.workload)
               << "\", \"count\": " << wl.latency.count()
               << ", \"mean_seconds\": " << wl.latency.meanSeconds()
               << ", \"max_seconds\": " << wl.latency.maxSeconds()
               << "}";
        }
        os << "]}";
        std::cout << os.str() << "\n";
        return;
    }

    std::cout << "gscalard: up " << Table::num(s.uptimeSeconds, 1)
              << "s, served " << s.requestsServed << " request(s), "
              << s.activeConnections << " open connection(s)\n"
              << "engine: " << s.jobs << " worker(s), queue "
              << s.queueDepth << " (peak " << s.peakQueueDepth
              << "); memo cache " << s.cacheHits << " hit(s) / "
              << s.cacheMisses << " miss(es), disk " << s.diskCacheHits
              << " hit(s) / " << s.diskCacheStores << " store(s)\n"
              << "simulated " << s.simCycles << " cycles, "
              << s.warpInsts << " warp-insts in "
              << Table::num(s.simWallSeconds, 2)
              << "s of simulate time\n";
    std::cout << "coalescing: " << s.coalesceLeaders
              << " run(s) started, " << s.coalesceFollowers
              << " joined one in flight; " << s.batches
              << " batch(es), peak "
              << s.batchPeak << " request(s)\n"
              << "admission: queued " << s.queueDepths[0] << "/"
              << s.queueDepths[1] << "/" << s.queueDepths[2]
              << " by band (peaks " << s.queuePeaks[0] << "/"
              << s.queuePeaks[1] << "/" << s.queuePeaks[2] << "), "
              << s.queueSheds << " queue shed(s)\n";
    if (s.reactorLoop.count() > 0)
        std::cout << "reactor loop: " << s.reactorLoop.summary()
                  << "\n";
    if (s.overloads || s.idleCloses || s.frameRejects)
        std::cout << "shed load: " << s.overloads
                  << " overloaded connection(s), " << s.idleCloses
                  << " idle close(s), " << s.frameRejects
                  << " oversized frame(s)\n";
    if (s.workloads.empty()) {
        std::cout << "request latency: (no requests served yet)\n";
        return;
    }
    std::cout << "request latency:\n";
    std::size_t w = 0;
    for (const WorkloadLatency &wl : s.workloads)
        w = std::max(w, wl.workload.size());
    for (const WorkloadLatency &wl : s.workloads)
        std::cout << "  " << std::left << std::setw(int(w) + 2)
                  << wl.workload << wl.latency.summary() << "\n";
}

int
cmdSubmit(int argc, char **argv)
{
    // `submit --stats` carries no workload argument; detect it before
    // deciding whether argv[2] is the benchmark name.
    const bool statsOnly =
        argc >= 3 && std::strcmp(argv[2], "--stats") == 0;
    if (!statsOnly && argc < 3)
        return usage();

    Options opt;
    parseFlags(argc, argv, statsOnly ? 2 : 3, opt);

    // Target resolution: explicit --connect beats $GS_CONNECT beats
    // the unix socket. The environment value is validated whenever it
    // is set (GS_JOBS idiom), even when --connect shadows it.
    std::optional<ConnectTarget> target;
    if (const char *env = std::getenv("GS_CONNECT"); env && *env) {
        std::string why;
        target = parseConnectTarget(env, &why);
        if (!target)
            GS_FATAL("GS_CONNECT: ", why);
    }
    if (!opt.connect.empty())
        target = parseConnectTarget(opt.connect);

    GscalarClient client =
        target ? GscalarClient(*target) : GscalarClient(opt.socket);
    std::string err;
    if (opt.stats) {
        const std::optional<DaemonStats> s = client.stats(&err);
        if (!s) {
            std::cerr << "gscalar submit: " << err << "\n";
            return 1;
        }
        printDaemonStats(*s, opt.json);
        return 0;
    }

    const std::optional<RunResult> r =
        client.run(argv[2], opt.cfg, &err, opt.priority);
    if (!r) {
        std::cerr << "gscalar submit: " << err << "\n";
        return 1;
    }
    printResult(*r, opt);
    return 0;
}

int
cmdFuzz(int argc, char **argv)
{
    initHarness(argc, argv); // --jobs/--cache/--fault

    FuzzOptions opt;
    // Environment defaults are validated even when a flag overrides
    // them (GS_JOBS idiom: a malformed value is a configuration error,
    // never silently shadowed).
    if (const char *env = std::getenv("GS_FUZZ_COUNT")) {
        const std::optional<std::uint64_t> v = parseCountValue(env);
        if (!v)
            GS_FATAL("GS_FUZZ_COUNT='", env,
                     "' is not a valid kernel count "
                     "(want an integer in [1, 1000000])");
        opt.count = *v;
    }
    if (const char *env = std::getenv("GS_FUZZ_SEED")) {
        const std::optional<std::uint64_t> v = parseSeedValue(env);
        if (!v)
            GS_FATAL("GS_FUZZ_SEED='", env,
                     "' is not a valid campaign seed "
                     "(want a non-negative integer)");
        opt.seed = *v;
    }
    if (const char *env = std::getenv("GS_FUZZ_CORPUS"); env && *env)
        opt.corpusDir = env;

    std::string replayPath;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&](const char *what) -> std::string {
            if (i + 1 >= argc)
                GS_FATAL(what, " needs a value");
            return argv[++i];
        };
        if (a == "--count") {
            const std::string v = need("--count");
            const std::optional<std::uint64_t> count =
                parseCountValue(v);
            if (!count)
                GS_FATAL("invalid --count value '", v,
                         "' (want an integer in [1, 1000000])");
            opt.count = *count;
        } else if (a == "--seed") {
            const std::string v = need("--seed");
            const std::optional<std::uint64_t> seed =
                parseSeedValue(v);
            if (!seed)
                GS_FATAL("invalid --seed value '", v,
                         "' (want a non-negative integer)");
            opt.seed = *seed;
        } else if (a == "--knob") {
            const std::string v = need("--knob");
            const std::size_t eq = v.find('=');
            if (eq == std::string::npos || eq == 0)
                GS_FATAL("--knob wants knob=value, got '", v, "'");
            const std::string knob = v.substr(0, eq);
            const std::string value = v.substr(eq + 1);
            // Validate name and value now; drawSpec re-applies the pin
            // per kernel.
            GenSpec scratch;
            std::string why;
            if (!setGenKnob(scratch, knob, value, &why))
                GS_FATAL("--knob '", v, "': ", why);
            opt.knobs.emplace_back(knob, value);
        } else if (a == "--corpus") {
            opt.corpusDir = need("--corpus");
        } else if (a == "--modes") {
            opt.diff.modes.clear();
            std::istringstream in(need("--modes"));
            std::string name;
            while (std::getline(in, name, ','))
                if (!name.empty()) {
                    const std::optional<ArchMode> m = parseArchMode(name);
                    if (!m)
                        GS_FATAL("unknown mode '", name, "'");
                    opt.diff.modes.push_back(*m);
                }
            if (opt.diff.modes.empty())
                GS_FATAL("--modes wants a comma-separated mode list");
        } else if (a == "--replay") {
            replayPath = need("--replay");
        } else if (a == "--no-engine") {
            opt.engineTraffic = false;
        } else if (const std::optional<int> n = processFlagValues(a)) {
            i += *n; // consumed by initHarness
        } else {
            GS_FATAL("unknown option '", a,
                     "' (see `gscalar fuzz --help`)");
        }
    }

    if (!replayPath.empty()) {
        std::string detail;
        const bool reproduced =
            replayReproducer(replayPath, opt.diff, &detail);
        std::cout << (reproduced ? "replay: " : "replay FAILED: ")
                  << detail << "\n";
        printHealthSummary();
        return reproduced ? 0 : 1;
    }

    const FuzzCampaignResult result = runFuzzCampaign(opt);
    for (const std::string &line : result.reportLines)
        std::cout << line << "\n";
    std::cout << result.summaryText << "\n";
    std::cerr << defaultEngine().statsSummary() << "\n";
    printHealthSummary();
    return result.clean() ? 0 : 1;
}

int
cmdSweep(int argc, char **argv)
{
    initHarness(argc, argv); // --jobs/--cache/--fault

    SweepOptions sopt;
    ResultFormat format = ResultFormat::Text;
    bool expandOnly = false;
    std::string manifestPath;
    auto setFormat = [&format](const std::string &v) {
        const std::optional<ResultFormat> f = parseResultFormat(v);
        if (!f)
            GS_FATAL("unknown --format '", v,
                     "' (want text, json or csv)");
        format = *f;
    };
    // Strict unsigned parse (GS_JOBS idiom): malformed cadence/retry
    // values are configuration errors, never silent defaults.
    auto parseUint = [](const std::string &v, const char *what,
                        std::uint64_t lo,
                        std::uint64_t hi) -> std::uint64_t {
        const std::optional<std::uint64_t> n = parseDecimal(v, lo, hi);
        if (!n)
            GS_FATAL("invalid ", what, " value '", v,
                     "' (want an integer in [", lo, ", ", hi, "])");
        return *n;
    };
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&](const char *what) -> std::string {
            if (i + 1 >= argc)
                GS_FATAL(what, " needs a value");
            return argv[++i];
        };
        if (a == "--resume")
            sopt.resume = true;
        else if (a == "--expand")
            expandOnly = true;
        else if (a == "--dir")
            sopt.sweepDir = need("--dir");
        else if (a.rfind("--format=", 0) == 0)
            setFormat(a.substr(9));
        else if (a == "--format")
            setFormat(need("--format"));
        else if (a == "--socket")
            sopt.socketPath = need("--socket");
        else if (a == "--connect") {
            // GS_JOBS idiom: strict parse now, never a lazy failure
            // at the first submit.
            const std::string v = need("--connect");
            std::string why;
            const std::optional<ConnectTarget> t =
                parseConnectTarget(v, &why);
            if (!t)
                GS_FATAL("invalid --connect value: ", why);
            sopt.tcp = t;
        } else if (a == "--attempts")
            sopt.pointAttempts =
                unsigned(parseUint(need("--attempts"), "--attempts",
                                   1, 100));
        else if (a == "--progress")
            sopt.progressEvery =
                parseUint(need("--progress"), "--progress", 1,
                          std::numeric_limits<std::uint64_t>::max());
        else if (const std::optional<int> n = processFlagValues(a))
            i += *n; // consumed by initHarness
        else if (!a.empty() && a[0] == '-')
            GS_FATAL("unknown option '", a,
                     "' (see `gscalar sweep --help`)");
        else if (manifestPath.empty())
            manifestPath = a;
        else
            GS_FATAL("unexpected argument '", a,
                     "' (one manifest per sweep)");
    }
    if (manifestPath.empty())
        return usage();

    std::string err;
    const std::optional<SweepManifest> manifest =
        SweepManifest::load(manifestPath, &err);
    if (!manifest)
        GS_FATAL("sweep manifest ", manifestPath, ": ", err);

    if (expandOnly) {
        // Dry run: show what the campaign would simulate, never touch
        // the sweep directory.
        const std::optional<std::vector<SweepPoint>> points =
            manifest->expand(&err);
        if (!points)
            GS_FATAL("sweep manifest ", manifestPath, ": ", err);
        std::cout << "campaign " << manifest->campaignId() << ": "
                  << points->size() << " point(s)\n";
        for (const SweepPoint &p : *points) {
            std::ostringstream os;
            os << std::hex << std::setfill('0') << std::setw(16)
               << p.fingerprint();
            std::cout << p.index << "  " << os.str() << "  "
                      << p.workload << "  " << p.label() << "\n";
        }
        return 0;
    }

    const SweepOutcome outcome = runSweepCampaign(*manifest, sopt);
    makeResultSink(format, std::cout)->emit(outcome.aggregate);
    stderrSink().writeLine(defaultEngine().statsSummary());
    printHealthSummary();
    return outcome.ok() ? 0 : 1;
}

int
cmdConfig(int, char **)
{
    std::cout << experimentConfig().describe();
    return 0;
}

int
cmdList(int, char **)
{
    for (const auto &n : workloadNames())
        std::cout << n << "\n";
    return 0;
}

const std::vector<Command> &
commands()
{
    static const std::vector<Command> table = {
        {"run", "<BENCH> [options]",
         "simulate one benchmark and print its counters",
         "  --mode M     architecture (default baseline)\n"
         "  --warp N     warp size\n"
         "  --sms N      SM count\n"
         "  --seed S     input-data seed\n"
         "  --codec C    RF compression codec (byte-mask, bdi,\n"
         "               static-profile, rrcd; GS_CODEC)\n"
         "  --csv        per-run counter row (with header)\n"
         "  --json       flat JSON object of every metric\n"
         "  --power      append the power breakdown\n"
         "  --jobs/-j N  worker pool size\n"
         "  --cache      persist runs on disk (GS_CACHE_DIR)\n",
         cmdRun},
        {"suite", "[options]",
         "simulate the whole Table 2 suite",
         "  --mode M     architecture (default baseline)\n"
         "  --csv        full counter matrix as CSV\n"
         "  --jobs/-j N  worker pool size\n"
         "  --cache      persist runs on disk\n",
         cmdSuite},
        {"bench", "[--list] [--only=NAME[,NAME]] [--format=F]",
         "run registered experiments (all of them by default)",
         "  --list          show every experiment (name, paper tag,\n"
         "                  description) and exit\n"
         "  --only=N[,N]    run a subset by registry name\n"
         "  --format=F      text (default; golden reference bytes),\n"
         "                  json (one document per experiment) or csv\n"
         "  --jobs/-j N     worker pool size\n"
         "  --codec C       RF compression codec (GS_CODEC)\n"
         "  --cache         persist runs on disk\n"
         "  --fault SPEC    inject faults (site:kind:rate[:seed],\n"
         "                  comma-separated; same as $GS_FAULT)\n"
         "\n"
         "  With no --only the full registry runs in reference order,\n"
         "  so `gscalar bench` reproduces docs/bench_reference_output\n"
         "  .txt byte for byte on stdout (engine stats go to stderr).\n",
         cmdBench},
        {"disasm", "<BENCH>",
         "disassemble a benchmark's kernels",
         "  Prints every kernel of the workload plus its launch\n"
         "  geometry.\n",
         cmdDisasm},
        {"trace", "<BENCH> [--mode M] [--lines N]",
         "print the first lines of an issue-level text trace",
         "  --mode M    architecture (default baseline)\n"
         "  --lines N   lines to print (default 120)\n"
         "\n"
         "  For machine-readable traces of full runs use\n"
         "  GS_TRACE=path[:1/N] (sampled JSONL) on any command.\n",
         cmdTrace},
        {"experiment", "<name>... | all",
         "print experiment tables (text; see bench for formats)",
         "  Runs one or more registry experiments in the order given\n"
         "  and prints their tables; `all` expands to the whole\n"
         "  registry. Names are listed by `gscalar bench --list`.\n"
         "  --jobs/-j N  worker pool size\n"
         "  --cache      persist runs on disk\n",
         cmdExperiment},
        {"serve", "[--socket PATH] [--tcp HOST:PORT] [limits]",
         "run the gscalard simulation daemon",
         "  --socket PATH          unix socket (default $GS_SOCKET or\n"
         "                         $XDG_RUNTIME_DIR/gscalard.sock)\n"
         "  --tcp HOST:PORT        additionally listen on TCP (port 0\n"
         "                         binds an ephemeral port)\n"
         "  --timeout SEC          per-request engine budget\n"
         "                         (default 600)\n"
         "  --idle-timeout SEC     close connections idle this long\n"
         "                         (default 300; 0 disables)\n"
         "  --max-connections N    shed further connections with an\n"
         "                         `overloaded` response (default 64;\n"
         "                         0 = unlimited)\n"
         "  --max-frame-bytes N    reject request frames above N bytes\n"
         "                         (default and ceiling 16 MiB)\n"
         "  --max-queued N         admission bound on queued runs\n"
         "                         across the priority bands (default\n"
         "                         256; 0 = unbounded); overflow sheds\n"
         "                         the lowest band first\n"
         "  --fault SPEC           inject faults (same as $GS_FAULT)\n"
         "  --jobs/-j N            worker pool size\n"
         "  --codec C              default RF codec (GS_CODEC)\n"
         "  --cache                persist runs on disk\n"
         "\n"
         "  One epoll reactor thread owns every connection; duplicate\n"
         "  in-flight requests coalesce into a single simulation.\n"
         "  Clients reach it with `gscalar submit`; `gscalar submit\n"
         "  --stats` reports its live counters.\n",
         cmdServe},
        {"submit", "<BENCH> [options] | --stats [--json]",
         "send a run (or a stats probe) to a gscalard",
         "  <BENCH> [run flags]  submit one run; accepts the same\n"
         "                       --mode/--warp/--sms/--seed/--csv/\n"
         "                       --json/--power flags as `run`\n"
         "  --stats              fetch the daemon's live counters:\n"
         "                       uptime, requests served, engine pool\n"
         "                       and cache state, coalescing/admission\n"
         "                       tier, per-workload request latency\n"
         "  --json               machine-readable stats document\n"
         "  --socket PATH        daemon socket path\n"
         "  --connect HOST:PORT  reach a TCP daemon instead of the\n"
         "                       unix socket (or $GS_CONNECT; the\n"
         "                       flag wins)\n"
         "  --priority N         admission band 0..2 (default 1);\n"
         "                       0 is shed first under overload\n",
         cmdSubmit},
        {"fuzz", "[--count N] [--seed S] [--knob k=v]... [options]",
         "differential-fuzz generated kernels across all modes",
         "  --count N       kernels to generate (default 100;\n"
         "                  GS_FUZZ_COUNT)\n"
         "  --seed S        campaign seed (default 1; GS_FUZZ_SEED)\n"
         "  --knob k=v      pin one generator knob for every kernel\n"
         "                  (knobs: seed ops ctas tpc div pred scalar\n"
         "                  affine stride ind sfu shared); repeatable\n"
         "  --corpus DIR    write minimized reproducer artifacts here\n"
         "                  (GS_FUZZ_CORPUS)\n"
         "  --modes M[,M]   architecture modes to diff (default all)\n"
         "  --replay PATH   replay one reproducer artifact instead of\n"
         "                  running a campaign; exit 0 iff the recorded\n"
         "                  mismatch reproduces\n"
         "  --no-engine     skip the ExperimentEngine traffic leg\n"
         "  --jobs/-j N     diff worker threads\n"
         "  --codec C       RF codec for the compression modes\n"
         "                  (GS_CODEC)\n"
         "  --fault SPEC    inject faults (gen:miscompare exercises\n"
         "                  the minimize/artifact path end to end)\n"
         "\n"
         "  Every generated kernel runs through the cycle-level GPU in\n"
         "  each mode and the per-thread reference interpreter; any\n"
         "  disagreement is delta-debugged to a minimal reproducer.\n"
         "  Campaigns are deterministic: same seed and knobs, same\n"
         "  kernels and same stdout bytes, at any --jobs.\n"
         "  Exit 0 iff no kernel miscompared.\n",
         cmdFuzz},
        {"sweep", "<MANIFEST.json> [--resume] [--expand] [options]",
         "run a journaled multi-point campaign from a manifest",
         "  <MANIFEST.json>  gscalar.sweep.v1 manifest: a `base` knob\n"
         "                   object plus `axes` (knob, values) swept\n"
         "                   as an odometer (last axis fastest)\n"
         "  --resume         replay journaled points and compute only\n"
         "                   the remainder; the final table is byte-\n"
         "                   identical to an uninterrupted run\n"
         "  --expand         print the expanded points (index,\n"
         "                   fingerprint, workload, labels) and exit\n"
         "                   without simulating\n"
         "  --dir DIR        campaign root (default $GS_SWEEP_DIR or\n"
         "                   <cache dir>/sweeps); campaigns live at\n"
         "                   DIR/<campaign-id>/\n"
         "  --socket PATH    schedule points through the gscalard at\n"
         "                   this unix socket\n"
         "  --connect H:P    schedule points through a TCP gscalard;\n"
         "                   after 3 consecutive submit failures the\n"
         "                   campaign degrades to in-process execution\n"
         "  --attempts N     attempts per point before it is reported\n"
         "                   FAILED (default 3)\n"
         "  --progress N     progress line every N completed points\n"
         "                   (default ~10 lines per campaign)\n"
         "  --format F       text (default), json or csv\n"
         "  --jobs/-j N      worker pool size\n"
         "  --cache          persist runs on disk (GS_CACHE_DIR)\n"
         "  --fault SPEC     inject faults; sweep sites:\n"
         "                   journal-torn-write, journal-bit-flip,\n"
         "                   point-crash, daemon-lost\n"
         "\n"
         "  Every completed point is appended to a checksummed journal\n"
         "  (journal.jsonl) under the campaign directory, so a campaign\n"
         "  killed mid-flight (even SIGKILL) resumes with --resume:\n"
         "  corrupt records are quarantined and recomputed, completed\n"
         "  points are never re-simulated. Knobs: workload, mode,\n"
         "  codec, warp, sms, seed, check-granularity, scalar-banks,\n"
         "  half-reg, smov, compiler-smov, scalar-occupancy,\n"
         "  max-cycles. See docs/RELIABILITY.md.\n",
         cmdSweep},
        {"config", "",
         "print the Table 1 experiment configuration",
         "  Prints the baseline GTX 480 configuration every\n"
         "  experiment starts from.\n",
         cmdConfig},
        {"list", "",
         "list benchmark abbreviations",
         "  Prints the Table 2 workload abbreviations accepted by\n"
         "  run/disasm/trace/submit.\n",
         cmdList},
    };
    return table;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        if (argc >= 3) {
            if (const Command *c = findCommand(argv[2])) {
                printCommandHelp(*c, std::cout);
                return 0;
            }
        }
        printUsage(std::cout);
        return 0;
    }
    if (cmd == "--version" || cmd == "-V" || cmd == "version") {
        std::cout << "gscalar " << GS_VERSION << "\n";
        return 0;
    }
    // Reject a malformed environment up front for every subcommand
    // rather than at first use.
    checkStartupEnv();
    // "gen:..." workload names resolve everywhere (run, disasm,
    // submit, fuzz) once the generator's resolver is installed.
    registerGenWorkloads();
    const Command *c = findCommand(cmd);
    if (!c) {
        std::cerr << "gscalar: unknown command '" << cmd << "'\n\n";
        return usage();
    }
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            printCommandHelp(*c, std::cout);
            return 0;
        }
    }
    return c->run(argc, argv);
}
