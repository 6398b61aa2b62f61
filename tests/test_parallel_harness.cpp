/**
 * @file
 * Tests of the parallel experiment engine: determinism of parallel
 * runs vs serial ones, memoizing run-cache behaviour, config
 * fingerprint sensitivity, and worker-pool basics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "harness/engine.hpp"
#include "harness/report.hpp"

namespace gs
{
namespace
{

TEST(Fingerprint, StableForEqualConfigs)
{
    const ArchConfig a;
    const ArchConfig b;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a.fingerprint(), a.fingerprint());
}

TEST(Fingerprint, ChangesWhenAnyFieldChanges)
{
    const std::uint64_t base = ArchConfig{}.fingerprint();

    const std::vector<
        std::pair<const char *, std::function<void(ArchConfig &)>>>
        mutations = {
            {"mode", [](ArchConfig &c) { c.mode = ArchMode::GScalarFull; }},
            {"numSms", [](ArchConfig &c) { c.numSms += 1; }},
            {"warpSize", [](ArchConfig &c) { c.warpSize = 64; }},
            {"simtWidth", [](ArchConfig &c) { c.simtWidth = 8; }},
            {"sfuWidth", [](ArchConfig &c) { c.sfuWidth = 8; }},
            {"numAluPipes", [](ArchConfig &c) { c.numAluPipes = 3; }},
            {"maxThreadsPerSm",
             [](ArchConfig &c) { c.maxThreadsPerSm = 1024; }},
            {"maxCtasPerSm", [](ArchConfig &c) { c.maxCtasPerSm = 4; }},
            {"numVregsPerSm", [](ArchConfig &c) { c.numVregsPerSm = 512; }},
            {"numBanks", [](ArchConfig &c) { c.numBanks = 8; }},
            {"arraysPerBank", [](ArchConfig &c) { c.arraysPerBank = 4; }},
            {"numCollectors", [](ArchConfig &c) { c.numCollectors = 8; }},
            {"numSchedulers", [](ArchConfig &c) { c.numSchedulers = 4; }},
            {"schedPolicy",
             [](ArchConfig &c) {
                 c.schedPolicy = SchedPolicy::LooseRoundRobin;
             }},
            {"checkGranularity",
             [](ArchConfig &c) { c.checkGranularity = 8; }},
            {"halfRegisterCompression",
             [](ArchConfig &c) { c.halfRegisterCompression = false; }},
            {"scalarRfBanks", [](ArchConfig &c) { c.scalarRfBanks = 2; }},
            {"insertSpecialMoves",
             [](ArchConfig &c) { c.insertSpecialMoves = false; }},
            {"compilerAssistedSmov",
             [](ArchConfig &c) { c.compilerAssistedSmov = true; }},
            {"scalarShortensOccupancy",
             [](ArchConfig &c) { c.scalarShortensOccupancy = true; }},
            {"aluLatency", [](ArchConfig &c) { c.aluLatency += 1; }},
            {"mulLatency", [](ArchConfig &c) { c.mulLatency += 1; }},
            {"divLatency", [](ArchConfig &c) { c.divLatency += 1; }},
            {"sfuLatency", [](ArchConfig &c) { c.sfuLatency += 1; }},
            {"lineBytes", [](ArchConfig &c) { c.lineBytes = 64; }},
            {"l1Bytes", [](ArchConfig &c) { c.l1Bytes *= 2; }},
            {"l1Assoc", [](ArchConfig &c) { c.l1Assoc = 2; }},
            {"l1Latency", [](ArchConfig &c) { c.l1Latency += 1; }},
            {"l1MshrEntries", [](ArchConfig &c) { c.l1MshrEntries = 32; }},
            {"l2Bytes", [](ArchConfig &c) { c.l2Bytes *= 2; }},
            {"l2Assoc", [](ArchConfig &c) { c.l2Assoc = 4; }},
            {"l2Latency", [](ArchConfig &c) { c.l2Latency += 1; }},
            {"dramLatency", [](ArchConfig &c) { c.dramLatency += 1; }},
            {"memChannels", [](ArchConfig &c) { c.memChannels = 8; }},
            {"dramRequestsPerCycle",
             [](ArchConfig &c) { c.dramRequestsPerCycle = 1.0; }},
            {"sharedLatency", [](ArchConfig &c) { c.sharedLatency += 1; }},
            {"sharedBanks", [](ArchConfig &c) { c.sharedBanks = 16; }},
            {"coreClockGhz", [](ArchConfig &c) { c.coreClockGhz = 1.5; }},
            {"maxCycles", [](ArchConfig &c) { c.maxCycles += 1; }},
            {"seed", [](ArchConfig &c) { c.seed += 1; }},
            {"codec", [](ArchConfig &c) { c.codec = CodecId::Bdi; }},
        };

    for (const auto &[name, mutate] : mutations) {
        ArchConfig c;
        mutate(c);
        EXPECT_NE(c.fingerprint(), base)
            << "fingerprint() ignores field " << name;
    }
}

TEST(WorkerPool, DefaultJobsIsPositive)
{
    EXPECT_GE(WorkerPool::defaultJobs(), 1u);

    // GS_JOBS goes through parseJobsValue(): a bad value warns and
    // falls back to the hardware count instead of sizing a pool from a
    // prefix ("4abc") or without bound ("100000"). Only defaultJobs()
    // is called here; no pool is built from these values.
    const char *saved = std::getenv("GS_JOBS");
    const std::string restore = saved ? saved : "";
    ::unsetenv("GS_JOBS");
    const unsigned fallback = WorkerPool::defaultJobs();
    ::setenv("GS_JOBS", "3", 1);
    EXPECT_EQ(WorkerPool::defaultJobs(), 3u);
    for (const char *bad : {"4abc", "0", "100000", "", "-2"}) {
        ::setenv("GS_JOBS", bad, 1);
        EXPECT_EQ(WorkerPool::defaultJobs(), fallback) << bad;
    }
    if (saved)
        ::setenv("GS_JOBS", restore.c_str(), 1);
    else
        ::unsetenv("GS_JOBS");
}

/** initHarness() as a bench binary sees `GS_CODEC=bogus ... --codec bdi`. */
void
initHarnessWithBadEnvCodec()
{
    ::setenv("GS_CODEC", "bogus", 1);
    char prog[] = "harness";
    char flag[] = "--codec";
    char value[] = "bdi";
    char *argv[] = {prog, flag, value, nullptr};
    initHarness(3, argv);
    std::exit(0);
}

TEST(StartupEnvDeathTest, BadGsCodecIsFatalEvenWithCodecFlag)
{
    // Re-executed child: its GS_CODEC is resolved fresh, not cached by
    // earlier tests in this process.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(initHarnessWithBadEnvCodec(), ::testing::ExitedWithCode(1),
                "GS_CODEC='bogus'");
}

TEST(WorkerPool, RunsEverySubmittedTask)
{
    std::atomic<int> done{0};
    {
        WorkerPool pool(4);
        EXPECT_EQ(pool.jobs(), 4u);
        for (int i = 0; i < 100; ++i)
            pool.submit([&done] { ++done; });
    } // destructor drains the queue
    EXPECT_EQ(done.load(), 100);
}

/** A workload whose setup holds its worker until @p gate opens. */
Workload
gatedWorkload(std::shared_future<void> gate)
{
    Workload w;
    w.name = "GATE";
    w.suite = "test";
    w.setup = [gate](GlobalMemory &, std::uint64_t) {
        gate.wait();
        throw std::runtime_error("gate released");
    };
    return w;
}

/** Spin until @p pred holds or ~5 s pass. */
template <typename Pred>
bool
eventually(Pred pred)
{
    for (int i = 0; i < 500 && !pred(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return pred();
}

TEST(EngineAsync, JoinsAndMemoHitsShareOneResult)
{
    setQuiet(true);
    std::promise<void> open;
    ExperimentEngine engine(1);
    const ArchConfig cfg;
    engine.submit(gatedWorkload(open.get_future().share()), cfg);

    std::vector<const RunResult *> got(3, nullptr);
    std::atomic<int> calls{0};
    auto record = [&](int i) {
        return [&, i](const RunResult *r) {
            got[std::size_t(i)] = r;
            ++calls;
        };
    };
    EXPECT_EQ(engine.submitAsync("BT", cfg, 1, 0, record(0)),
              Admission::Started);
    EXPECT_EQ(engine.submitAsync("BT", cfg, 2, 0, record(1)),
              Admission::Joined);
    EXPECT_EQ(calls.load(), 0); // the one worker is held by the gate
    open.set_value();
    ASSERT_TRUE(eventually([&] { return calls.load() == 2; }));

    // A memo hit answers at once, on the submitting thread.
    EXPECT_EQ(engine.submitAsync("BT", cfg, 0, 0, record(2)),
              Admission::Cached);
    EXPECT_EQ(calls.load(), 3);
    ASSERT_NE(got[0], nullptr);
    EXPECT_TRUE(got[0]->ok()) << got[0]->error;
    EXPECT_EQ(got[1], got[0]); // one shared result, not copies
    EXPECT_EQ(got[2], got[0]);
    const CacheStats s = engine.cacheStats();
    EXPECT_EQ(s.misses, 2u); // GATE and BT
    EXPECT_EQ(s.hits, 2u);
}

TEST(EngineAsync, EvictedRunIsShedAndIsNoComputation)
{
    setQuiet(true);
    std::promise<void> open;
    ExperimentEngine engine(1);
    ArchConfig cfg;
    engine.submit(gatedWorkload(open.get_future().share()), cfg);
    ASSERT_TRUE(eventually([&] { return engine.snapshot().queueDepth == 0; }));

    // B fills the one queue slot at band 0; a blocking caller joins it.
    int shedB = 0;
    cfg.seed = 1;
    EXPECT_EQ(engine.submitAsync("BT", cfg, 0, 1,
                                 [&](const RunResult *r) {
                                     shedB += r == nullptr;
                                 }),
              Admission::Started);
    const std::shared_future<RunResult> joinedB = engine.submit("BT", cfg);
    // The blocking join, at the default band, lifts B to band 1.
    EXPECT_EQ(engine.snapshot().bandDepths[1], 1u);

    // C at band 2 evicts B: B's waiters hear of it before submitAsync
    // returns, and B no longer counts as a miss.
    std::promise<bool> cOk;
    cfg.seed = 2;
    EXPECT_EQ(engine.submitAsync("BT", cfg, 2, 1,
                                 [&](const RunResult *r) {
                                     cOk.set_value(r && r->ok());
                                 }),
              Admission::Started);
    EXPECT_EQ(shedB, 1);
    EXPECT_NE(joinedB.get().error.find("shed"), std::string::npos);
    EXPECT_EQ(engine.cacheStats().misses, 2u); // GATE and C

    // D at band 0 has nothing below it to evict: refused, no callback.
    cfg.seed = 3;
    EXPECT_EQ(engine.submitAsync("BT", cfg, 0, 1,
                                 [](const RunResult *) {
                                     ADD_FAILURE() << "refused run called";
                                 }),
              Admission::Refused);
    const EngineSnapshot snap = engine.snapshot();
    EXPECT_EQ(snap.bandDepths[0], 0u);
    EXPECT_EQ(snap.bandDepths[2], 1u);
    EXPECT_EQ(snap.bandPeaks[0], 1u);

    open.set_value();
    EXPECT_TRUE(cOk.get_future().get());

    // The shed point was forgotten: asking again computes it.
    cfg.seed = 1;
    EXPECT_TRUE(engine.run("BT", cfg).ok());
    EXPECT_EQ(engine.cacheStats().misses, 3u);
}

TEST(EngineAsync, DegradedEngineStillRunsAsyncSubmitsOnItsPool)
{
    setQuiet(true);
    ExperimentEngine engine(2);
    ArchConfig cfg;
    for (unsigned i = 0; i < ExperimentEngine::kDegradeThreshold; ++i) {
        Workload w;
        w.name = "FAIL" + std::to_string(i);
        w.setup = [](GlobalMemory &, std::uint64_t) {
            throw std::runtime_error("setup exploded");
        };
        EXPECT_FALSE(engine.run(w, cfg).ok());
    }
    ASSERT_TRUE(engine.degraded());

    // A degraded engine keeps asynchronous work off the caller: an
    // event loop submitting here must never stall on a simulation.
    std::promise<std::thread::id> where;
    bool ok = false;
    EXPECT_EQ(engine.submitAsync("BT", cfg, kDefaultPriority, 0,
                                 [&](const RunResult *r) {
                                     ok = r && r->ok();
                                     where.set_value(
                                         std::this_thread::get_id());
                                 }),
              Admission::Started);
    EXPECT_NE(where.get_future().get(), std::this_thread::get_id());
    EXPECT_TRUE(ok);
    EXPECT_EQ(engine.cacheStats().serialFallbacks, 0u);
}

TEST(EngineAsync, UnknownNameCompletesWithAnError)
{
    setQuiet(true);
    ExperimentEngine engine(1);
    std::promise<std::string> error;
    engine.submitAsync("NOPE", ArchConfig{}, kDefaultPriority, 0,
                       [&](const RunResult *r) {
                           error.set_value(r ? r->error : "shed");
                       });
    EXPECT_EQ(error.get_future().get(), "unknown workload 'NOPE'");
    EXPECT_EQ(engine.cacheStats().runRetries, 0u);
    EXPECT_FALSE(engine.degraded());
}

TEST(ParallelHarness, CacheHitsForRepeatedRuns)
{
    setQuiet(true);
    ExperimentEngine engine(2);
    ArchConfig cfg;
    cfg.mode = ArchMode::GScalarFull;

    const RunResult first = engine.run("MQ", cfg);
    CacheStats s = engine.cacheStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 0u);

    const RunResult second = engine.run("MQ", cfg);
    s = engine.cacheStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(csvRow(first), csvRow(second));

    // Any config difference is a different key.
    ArchConfig other = cfg;
    other.seed += 1;
    engine.run("MQ", other);
    s = engine.cacheStats();
    EXPECT_EQ(s.misses, 2u);

    engine.clearCache();
    engine.run("MQ", cfg);
    s = engine.cacheStats();
    EXPECT_EQ(s.misses, 3u);
}

TEST(ParallelHarness, ParallelMatchesSerialByteForByte)
{
    setQuiet(true);
    const std::vector<std::string> benches = {"MQ", "HS", "BP", "PF"};
    const ArchMode modes[] = {ArchMode::Baseline, ArchMode::GScalarFull};

    // Serial reference, one run at a time on this thread.
    std::vector<std::string> serial;
    for (const ArchMode m : modes) {
        for (const auto &b : benches) {
            ArchConfig cfg;
            cfg.mode = m;
            serial.push_back(csvRow(runWorkload(b, cfg)));
        }
    }

    // Same matrix fanned out over four workers; csvRow covers every
    // event counter and power component, so equality here is
    // bit-level determinism of the simulation under concurrency.
    ExperimentEngine engine(4);
    std::vector<std::shared_future<RunResult>> futures;
    for (const ArchMode m : modes) {
        for (const auto &b : benches) {
            ArchConfig cfg;
            cfg.mode = m;
            futures.push_back(engine.submit(b, cfg));
        }
    }
    for (std::size_t i = 0; i < futures.size(); ++i)
        EXPECT_EQ(serial[i], csvRow(futures[i].get())) << "run " << i;
}

TEST(ParallelHarness, SuiteKeepsTable2Order)
{
    setQuiet(true);
    ExperimentEngine engine(4);
    ArchConfig cfg;
    const std::vector<RunResult> results = engine.runSuite(cfg);
    const auto &names = workloadNames();
    ASSERT_EQ(results.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(results[i].workload, names[i]);
        EXPECT_GT(results[i].wallSeconds, 0.0);
    }

    // A second pass is served entirely from the cache.
    const CacheStats before = engine.cacheStats();
    engine.runSuite(cfg);
    const CacheStats after = engine.cacheStats();
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.hits, before.hits + names.size());
}

} // namespace
} // namespace gs
