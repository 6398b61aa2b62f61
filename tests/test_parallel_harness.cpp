/**
 * @file
 * Tests of the parallel experiment engine: determinism of parallel
 * runs vs serial ones, memoizing run-cache behaviour, config
 * fingerprint sensitivity, and worker-pool basics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <string>
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
