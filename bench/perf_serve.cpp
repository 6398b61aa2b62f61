/**
 * @file
 * Serving-tier performance baseline. Boots an in-process gscalard
 * reactor on a throwaway unix socket and drives it with N concurrent
 * clients at three duplicate-fingerprint ratios (0%, 50%, 90%),
 * measuring submits/s and client-observed p50/p99 latency. Like
 * perf_sim_core this is host-dependent wall clock, so it never joins
 * the golden byte-compare; CI validates the schema, not the numbers.
 *
 * The dup=90% row doubles as the coalescing acceptance gate: the
 * engine must compute at most 1.2x the unique-fingerprint count
 * (counter-verified against the engine's miss counter), i.e. the
 * coalescing/memo tier absorbs virtually every duplicate. Violations
 * abort with a nonzero exit so the check cannot rot silently.
 *
 * The committed baseline lives at BENCH_serve.json (repo root);
 * refresh it with:
 *
 *   perf_serve --json > BENCH_serve.json
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness/engine.hpp"
#include "obs/result.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace
{

using namespace gs;
using Clock = std::chrono::steady_clock;

/** Cheapest Table 2 member: keeps the 1-core baseline tolerable. */
const std::string kWorkload = "ST";

constexpr unsigned kClients = 8;   ///< concurrent client threads
constexpr unsigned kPerClient = 8; ///< submits per client

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Deterministic submit schedule: @p total seeds of which
 * `total * dupPct / 100` repeat earlier ones (round-robin over the
 * unique set), shuffled so duplicates interleave with fresh work the
 * way independent clients would produce them.
 */
std::vector<std::uint64_t>
schedule(unsigned total, unsigned dupPct, unsigned &uniqueOut)
{
    const unsigned dup = total * dupPct / 100;
    const unsigned unique = total - dup;
    uniqueOut = unique;
    std::vector<std::uint64_t> seeds;
    seeds.reserve(total);
    for (unsigned i = 0; i < unique; ++i)
        seeds.push_back(5000 + i);
    for (unsigned i = 0; i < dup; ++i)
        seeds.push_back(5000 + (i % unique));
    Rng rng(42 + dupPct);
    for (unsigned i = total - 1; i > 0; --i)
        std::swap(seeds[i], seeds[rng.next32() % (i + 1)]);
    return seeds;
}

double
percentile(std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const std::size_t idx = std::size_t(
        p * double(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/** One full client fleet pass at a duplicate ratio; emits one row. */
void
servePass(Table &t, const std::string &socketPath, unsigned dupPct)
{
    // A fresh engine and server per ratio keeps the counters (and the
    // memo cache) scoped to this pass.
    ExperimentEngine engine(0); // 0 = defaultJobs (GS_JOBS / --jobs)
    GscalarServer::Options o;
    o.socketPath = socketPath;
    GscalarServer server(engine, o);
    std::string err;
    if (!server.start(&err))
        GS_FATAL("cannot start the serve-bench daemon: ", err);

    const unsigned total = kClients * kPerClient;
    unsigned unique = 0;
    const std::vector<std::uint64_t> seeds =
        schedule(total, dupPct, unique);

    std::vector<std::vector<double>> latencies(kClients);
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> fleet;
    const auto t0 = Clock::now();
    for (unsigned c = 0; c < kClients; ++c) {
        fleet.emplace_back([&, c] {
            GscalarClient client(socketPath);
            for (unsigned i = 0; i < kPerClient; ++i) {
                ArchConfig cfg;
                cfg.seed = seeds[i * kClients + c];
                const auto s = Clock::now();
                std::string rerr;
                if (!client.run(kWorkload, cfg, &rerr)) {
                    GS_WARN("serve bench submit failed: ", rerr);
                    failures.fetch_add(1);
                    continue;
                }
                latencies[c].push_back(secondsSince(s));
            }
        });
    }
    for (std::thread &th : fleet)
        th.join();
    const double wall = secondsSince(t0);
    server.stop();
    if (failures.load() != 0)
        GS_FATAL(failures.load(), " of ", total,
                 " submits failed; the baseline would lie");

    std::vector<double> all;
    for (const auto &v : latencies)
        all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());

    const std::uint64_t computed = engine.cacheStats().misses;
    // Acceptance gate: duplicates must coalesce (in flight) or memoise
    // (after landing), never recompute. 1.2x leaves room for unlucky
    // schedules where a duplicate arrives while no flight is open yet.
    if (double(computed) > 1.2 * double(unique))
        GS_FATAL("coalescing regressed at dup=", dupPct, "%: ",
                 computed, " engine computations for ", unique,
                 " unique fingerprints (bound 1.2x)");

    std::ostringstream label;
    label << "dup=" << dupPct << "% clients=" << kClients;
    t.row({label.str(), Table::num(total / wall, 2),
           Table::num(percentile(all, 0.50) * 1e3, 1),
           Table::num(percentile(all, 0.99) * 1e3, 1),
           Table::num(double(computed), 0),
           Table::num(double(unique), 0),
           Table::num(double(server.coalesceFollowers()), 0),
           Table::num(wall, 3)});
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
                     "' (perf_serve [--json|--format=F])");
        }
    }

    const std::string socketPath =
        (std::filesystem::temp_directory_path() /
         ("gs-perf-serve-" + std::to_string(::getpid()) + ".sock"))
            .string();

    Table t("Serving-tier performance baseline (host-dependent)");
    t.row({"case", "submits/s", "p50 ms", "p99 ms", "computed",
           "unique", "followers", "secs"});
    for (const unsigned dupPct : {0u, 50u, 90u})
        servePass(t, socketPath, dupPct);
    ::unlink(socketPath.c_str());

    const SuiteResult result = makeSuiteResult("perf_serve", "perf", t);
    makeResultSink(format, std::cout)->emit(result);
    return 0;
}
