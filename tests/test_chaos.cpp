/**
 * @file
 * Chaos suite: the hardened request path under injected faults. Every
 * test arms a fault class and asserts the end result is *identical* to
 * a fault-free run (the absorption contract), or that permanent
 * failures are captured and degraded gracefully rather than aborting.
 * Covers all three seams — engine workers, store file ops, serve
 * sockets — plus the daemon's shed-load guards and a CLI-level
 * byte-identical check through the real binary (GS_CLI_PATH).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "harness/engine.hpp"
#include "harness/runner.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "store/run_cache.hpp"
#include "workloads/workload.hpp"

namespace fs = std::filesystem;
using namespace gs;

namespace
{

/** Fresh mkdtemp directory, removed on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "gschaos-XXXXXX").string();
        char *p = ::mkdtemp(tmpl.data());
        EXPECT_NE(p, nullptr);
        path = tmpl;
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

/** Short throwaway socket path (sun_path caps at ~108 bytes). */
struct TempSocket
{
    std::string path;

    TempSocket()
    {
        static std::atomic<unsigned> counter{0};
        path = (fs::temp_directory_path() /
                ("gsc-test-" + std::to_string(::getpid()) + "-" +
                 std::to_string(counter.fetch_add(1)) + ".sock"))
                   .string();
    }

    ~TempSocket() { ::unlink(path.c_str()); }
};

/** Disarm the global injector on scope exit, whatever happens. */
struct DisarmAtExit
{
    ~DisarmAtExit() { faultInjector().disarm(); }
};

void
arm(const std::string &spec)
{
    std::string err;
    ASSERT_TRUE(faultInjector().configure(spec, &err)) << err;
}

/** Live .run records under @p root, excluding quarantine/. */
std::vector<fs::path>
recordFiles(const std::string &root)
{
    std::vector<fs::path> out;
    std::error_code ec;
    for (const auto &e : fs::recursive_directory_iterator(root, ec)) {
        if (!e.is_regular_file() || e.path().extension() != ".run")
            continue;
        bool quarantined = false;
        for (const auto &part : e.path())
            if (part == "quarantine")
                quarantined = true;
        if (!quarantined)
            out.push_back(e.path());
    }
    return out;
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.ev.cycles, b.ev.cycles);
    EXPECT_EQ(a.ev.warpInsts, b.ev.warpInsts);
    EXPECT_DOUBLE_EQ(a.power.totalW, b.power.totalW);
}

/** A workload whose setup always throws (a permanent failure — the
 *  injector's Suppress guard cannot absorb it). */
Workload
failingWorkload(const std::string &name)
{
    Workload w;
    w.name = name;
    w.fullName = "always failing";
    w.suite = "test";
    w.setup = [](GlobalMemory &, std::uint64_t) {
        throw std::runtime_error("setup exploded");
    };
    return w;
}

int
rawConnect(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  path.c_str());
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)),
        0);
    return fd;
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

/** Run the real CLI with an environment prefix, capturing stdout and
 *  stderr into files; returns the exit status. */
int
runCli(const std::string &envPrefix, const std::string &args,
       const std::string &outFile, const std::string &errFile)
{
    const std::string cmd = envPrefix + " '" GS_CLI_PATH "' " + args +
                            " > '" + outFile + "' 2> '" + errFile + "'";
    return std::system(cmd.c_str());
}

} // namespace

// ---- engine seam --------------------------------------------------------

TEST(ChaosEngine, ThrowFaultIsAbsorbedByRetry)
{
    ArchConfig cfg;
    cfg.mode = ArchMode::GScalarFull;
    const RunResult clean = runWorkload("BT", cfg);

    DisarmAtExit cleanup;
    arm("engine:throw:1");
    ExperimentEngine engine(2);
    const RunResult faulted = engine.run("BT", cfg);
    expectSameResult(faulted, clean);

    // Every simulation threw once and was retried under Suppress.
    const CacheStats stats = engine.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.runRetries, 1u);
    EXPECT_EQ(stats.runFailures, 0u);
    EXPECT_FALSE(engine.degraded());
    EXPECT_GE(faultInjector().injectedAt("engine"), 1u);
}

TEST(ChaosEngine, SlowFaultOnlyCostsWallClock)
{
    ArchConfig cfg;
    const RunResult clean = runWorkload("BT", cfg);

    DisarmAtExit cleanup;
    arm("engine:slow:1:3");
    ExperimentEngine engine(1);
    const RunResult faulted = engine.run("BT", cfg);
    expectSameResult(faulted, clean);
    EXPECT_EQ(engine.cacheStats().runRetries, 0u);
}

TEST(ChaosEngine, PermanentFailureIsCapturedAndDegrades)
{
    healthCounters().reset();
    ArchConfig cfg;
    ExperimentEngine engine(2);

    // Three distinct permanently-failing runs: each is retried once,
    // captured into its RunResult (the suite keeps going), and the
    // third trips the degradation threshold.
    for (int i = 0; i < int(ExperimentEngine::kDegradeThreshold); ++i) {
        const RunResult r =
            engine.run(failingWorkload("FAIL" + std::to_string(i)), cfg);
        EXPECT_FALSE(r.ok());
        EXPECT_NE(r.error.find("setup exploded"), std::string::npos);
        EXPECT_EQ(r.ev.cycles, 0u);
    }
    EXPECT_TRUE(engine.degraded());
    EXPECT_TRUE(engine.snapshot().degraded);

    const CacheStats stats = engine.cacheStats();
    EXPECT_EQ(stats.runRetries, 3u);
    EXPECT_EQ(stats.runFailures, 3u);

    // Degraded mode still answers work — inline, on the caller thread.
    const RunResult good = engine.run("BT", cfg);
    EXPECT_TRUE(good.ok()) << good.error;
    EXPECT_GT(good.ev.cycles, 0u);
    EXPECT_GE(engine.cacheStats().serialFallbacks, 1u);
    EXPECT_GE(healthCounters().snapshot().serialFallbacks, 1u);
    healthCounters().reset();
}

// ---- store seam ---------------------------------------------------------

TEST(ChaosStore, CorruptRecordIsQuarantinedAndRecomputed)
{
    TempDir tmp;
    ArchConfig cfg;
    cfg.mode = ArchMode::GScalarFull;

    RunResult clean;
    {
        ExperimentEngine engine(1);
        engine.setDiskCache(std::make_unique<DiskRunCache>(tmp.path));
        clean = engine.run("BT", cfg);
        ASSERT_TRUE(clean.ok()) << clean.error;
        EXPECT_EQ(engine.diskCache()->stats().stores, 1u);
    }

    // Corrupt the published record on disk (a real bit flip, no
    // injector): the next engine must reject it, quarantine it, and
    // transparently recompute — satellite 4's end-to-end repair path.
    std::vector<fs::path> files = recordFiles(tmp.path);
    ASSERT_EQ(files.size(), 1u);
    {
        std::fstream f(files[0],
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(16);
        char c = 0;
        f.seekg(16);
        f.get(c);
        f.seekp(16);
        f.put(char(c ^ 0x20));
    }

    {
        ExperimentEngine engine(1);
        engine.setDiskCache(std::make_unique<DiskRunCache>(tmp.path));
        const RunResult repaired = engine.run("BT", cfg);
        expectSameResult(repaired, clean);
        const DiskCacheStats ds = engine.diskCache()->stats();
        EXPECT_GE(ds.rejects, 1u);
        EXPECT_EQ(ds.quarantined, 1u);
        EXPECT_EQ(ds.stores, 1u); // recomputed result re-published
        EXPECT_EQ(engine.cacheStats().diskHits, 0u);
    }
    std::error_code ec;
    EXPECT_FALSE(fs::is_empty(fs::path(tmp.path) / "quarantine", ec));

    // The repaired record now serves a third engine from disk.
    {
        ExperimentEngine engine(1);
        engine.setDiskCache(std::make_unique<DiskRunCache>(tmp.path));
        const RunResult cached = engine.run("BT", cfg);
        expectSameResult(cached, clean);
        EXPECT_EQ(engine.cacheStats().diskHits, 1u);
    }
}

TEST(ChaosStore, PublishFaultsNeverChangeResults)
{
    ArchConfig cfg;
    const RunResult clean = runWorkload("BT", cfg);

    DisarmAtExit cleanup;
    for (const char *kind : {"short-write", "rename-fail"}) {
        TempDir tmp;
        arm(std::string("store:") + kind + ":1");
        ExperimentEngine engine(1);
        engine.setDiskCache(std::make_unique<DiskRunCache>(tmp.path));
        const RunResult faulted = engine.run("BT", cfg);
        expectSameResult(faulted, clean);
        const DiskCacheStats ds = engine.diskCache()->stats();
        EXPECT_EQ(ds.stores, 0u) << kind;
        EXPECT_GE(ds.publishFailures, 1u) << kind;
        // A failed publish never leaves tmp litter or a live record.
        EXPECT_TRUE(recordFiles(tmp.path).empty()) << kind;
        faultInjector().disarm();
    }
}

TEST(ChaosStore, BitFlipFaultIsCaughtOnNextLoad)
{
    ArchConfig cfg;
    const RunResult clean = runWorkload("BT", cfg);
    TempDir tmp;

    DisarmAtExit cleanup;
    arm("store:bit-flip:1");
    {
        // The flip corrupts the record *after* the checksummed write,
        // so this store publishes poisoned bytes successfully.
        ExperimentEngine engine(1);
        engine.setDiskCache(std::make_unique<DiskRunCache>(tmp.path));
        expectSameResult(engine.run("BT", cfg), clean);
        EXPECT_EQ(engine.diskCache()->stats().stores, 1u);
    }
    faultInjector().disarm();

    // The next process trips the FNV-1a checksum, quarantines, and
    // recomputes — the corruption never reaches a result.
    ExperimentEngine engine(1);
    engine.setDiskCache(std::make_unique<DiskRunCache>(tmp.path));
    expectSameResult(engine.run("BT", cfg), clean);
    EXPECT_GE(engine.diskCache()->stats().rejects, 1u);
    EXPECT_EQ(engine.diskCache()->stats().quarantined, 1u);
}

// ---- serve seam ---------------------------------------------------------

TEST(ChaosServe, ClientRetriesUntilServerAppears)
{
    TempSocket sock;
    healthCounters().reset();

    ExperimentEngine engine(1);
    GscalarServer server(engine, [&] {
        GscalarServer::Options o;
        o.socketPath = sock.path;
        return o;
    }());

    // Start the server only after the client's first attempts have
    // already failed: the backoff loop must carry it through.
    std::thread starter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        std::string serr;
        ASSERT_TRUE(server.start(&serr)) << serr;
    });

    ClientOptions copts;
    copts.attempts = 30;
    copts.backoffBaseSec = 0.05;
    copts.backoffMaxSec = 0.2;
    GscalarClient client(sock.path, copts);
    std::string err;
    EXPECT_TRUE(client.ping(&err)) << err;
    EXPECT_GE(healthCounters().snapshot().clientRetries, 1u);

    starter.join();
    server.stop();
    healthCounters().reset();
}

TEST(ChaosServe, ConnResetExhaustsRetriesCleanly)
{
    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer::Options o;
    o.socketPath = sock.path;
    GscalarServer server(engine, o);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    DisarmAtExit cleanup;
    healthCounters().reset();
    arm("serve:conn-reset:1");
    ClientOptions copts;
    copts.attempts = 3;
    copts.backoffBaseSec = 0.001;
    copts.backoffMaxSec = 0.01;
    GscalarClient client(sock.path, copts);
    EXPECT_FALSE(client.ping(&err));
    EXPECT_FALSE(err.empty());
    EXPECT_GE(healthCounters().snapshot().clientRetries, 2u);

    // Disarmed, the same client recovers on a fresh connection.
    faultInjector().disarm();
    EXPECT_TRUE(client.ping(&err)) << err;
    server.stop();
    healthCounters().reset();
}

TEST(ChaosServe, EintrStormIsAbsorbed)
{
    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer::Options o;
    o.socketPath = sock.path;
    GscalarServer server(engine, o);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    ArchConfig cfg;
    const RunResult direct = runWorkload("BT", cfg);

    DisarmAtExit cleanup;
    // Rate 1 with a bounded per-call storm budget: every read and
    // write wades through injected EINTRs yet completes.
    arm("serve:eintr:1");
    GscalarClient client(sock.path);
    EXPECT_TRUE(client.ping(&err)) << err;
    const std::optional<RunResult> served = client.run("BT", cfg, &err);
    ASSERT_TRUE(served.has_value()) << err;
    expectSameResult(*served, direct);
    EXPECT_GE(faultInjector().injectedAt("serve"), 1u);
    server.stop();
}

TEST(ChaosServe, ConnectionCapShedsWithRetryableStatus)
{
    EXPECT_TRUE(retryableStatus(ResponseStatus::Overloaded));
    EXPECT_TRUE(retryableStatus(ResponseStatus::ShuttingDown));
    EXPECT_FALSE(retryableStatus(ResponseStatus::Ok));
    EXPECT_FALSE(retryableStatus(ResponseStatus::BadRequest));
    EXPECT_FALSE(retryableStatus(ResponseStatus::InternalError));

    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer::Options o;
    o.socketPath = sock.path;
    o.maxConnections = 1;
    GscalarServer server(engine, o);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // First client occupies the only slot...
    GscalarClient holder(sock.path);
    ASSERT_TRUE(holder.ping(&err)) << err;

    // ...so a second connection is answered Overloaded and closed.
    const int fd = rawConnect(sock.path);
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(readFrame(fd, payload, &err), 1) << err;
    const std::optional<RunResponse> resp =
        deserializeResponse(payload.data(), payload.size(), &err);
    ASSERT_TRUE(resp.has_value()) << err;
    EXPECT_EQ(resp->status, ResponseStatus::Overloaded);
    EXPECT_NE(resp->error.find("connection cap"), std::string::npos);
    ::close(fd);

    EXPECT_EQ(server.stats().overloads, 1u);
    // The held connection still works after the shed.
    EXPECT_TRUE(holder.ping(&err)) << err;
    server.stop();
}

TEST(ChaosServe, IdleConnectionsAreClosedButClientsRecover)
{
    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer::Options o;
    o.socketPath = sock.path;
    o.idleTimeoutSec = 0.15;
    GscalarServer server(engine, o);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    GscalarClient client(sock.path);
    ASSERT_TRUE(client.ping(&err)) << err;

    // Linger past the idle budget: the server reaps the connection.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    EXPECT_GE(server.stats().idleCloses, 1u);

    // The client's next request rides its retry loop onto a fresh
    // connection instead of failing on the dead one.
    EXPECT_TRUE(client.ping(&err)) << err;
    server.stop();
}

TEST(ChaosServe, OversizedFramesAreRejectedNotServed)
{
    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer::Options o;
    o.socketPath = sock.path;
    o.maxFrameBytes = 1024;
    GscalarServer server(engine, o);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    const int fd = rawConnect(sock.path);
    const std::vector<std::uint8_t> big(4096, 0x5a);
    ASSERT_TRUE(writeFrame(fd, big));
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(readFrame(fd, payload, &err), 1) << err;
    const std::optional<RunResponse> resp =
        deserializeResponse(payload.data(), payload.size(), &err);
    ASSERT_TRUE(resp.has_value()) << err;
    EXPECT_EQ(resp->status, ResponseStatus::BadRequest);
    EXPECT_NE(resp->error.find("1024"), std::string::npos);
    ::close(fd);

    EXPECT_EQ(server.stats().frameRejects, 1u);
    // Well-behaved clients are unaffected.
    GscalarClient client(sock.path);
    EXPECT_TRUE(client.ping(&err)) << err;
    server.stop();
}

// ---- double faults: two seams armed at once -----------------------------

TEST(ChaosDoubleFault, StoreBitFlipPlusEngineThrowByteIdentical)
{
    ArchConfig cfg;
    cfg.mode = ArchMode::GScalarFull;
    const RunResult clean = runWorkload("BT", cfg);

    DisarmAtExit cleanup;
    TempDir tmp;
    // Both seams armed at once: every simulation throws (and is
    // retried under Suppress) while every published cache record is
    // poisoned after its checksummed write.
    arm("store:bit-flip:1:2,engine:throw:1:3");
    {
        ExperimentEngine engine(2);
        engine.setDiskCache(std::make_unique<DiskRunCache>(tmp.path));
        const RunResult faulted = engine.run("BT", cfg);
        expectSameResult(faulted, clean);
        EXPECT_GE(engine.cacheStats().runRetries, 1u);
        EXPECT_EQ(engine.diskCache()->stats().stores, 1u);
    }

    // A second process composes both recoveries: the poisoned record
    // trips the checksum and is quarantined, the recompute rides the
    // engine retry — and the result is still identical.
    ExperimentEngine engine(2);
    engine.setDiskCache(std::make_unique<DiskRunCache>(tmp.path));
    const RunResult recovered = engine.run("BT", cfg);
    expectSameResult(recovered, clean);
    EXPECT_GE(engine.diskCache()->stats().rejects, 1u);
    EXPECT_EQ(engine.diskCache()->stats().quarantined, 1u);
    EXPECT_GE(engine.cacheStats().runRetries, 1u);
}

TEST(ChaosDoubleFault, ConnResetPlusEngineThrowServesEveryClient)
{
    TempSocket sock;
    ArchConfig cfg;
    const RunResult direct = runWorkload("BT", cfg);

    ExperimentEngine engine(2);
    GscalarServer::Options o;
    o.socketPath = sock.path;
    GscalarServer server(engine, o);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    DisarmAtExit cleanup;
    healthCounters().reset();
    // Connections reset underneath clients while the one engine run
    // they all join throws on its first attempt: the client retry
    // ladder and the engine's retry must compose.
    arm("serve:conn-reset:0.15:5,engine:throw:1:6");
    constexpr int kClients = 4;
    std::vector<std::optional<RunResult>> results(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&, i] {
            ClientOptions copts;
            copts.attempts = 20;
            copts.backoffBaseSec = 0.005;
            copts.backoffMaxSec = 0.05;
            copts.jitterSeed = std::uint64_t(i);
            GscalarClient client(sock.path, copts);
            std::string cerr;
            results[std::size_t(i)] = client.run("BT", cfg, &cerr);
        });
    for (std::thread &t : clients)
        t.join();
    faultInjector().disarm();

    for (const std::optional<RunResult> &r : results) {
        ASSERT_TRUE(r.has_value());
        expectSameResult(*r, direct);
    }
    EXPECT_GE(engine.cacheStats().runRetries, 1u);
    EXPECT_EQ(engine.cacheStats().misses, 1u);
    server.stop();
    healthCounters().reset();
}

// ---- end to end through the real binary ---------------------------------

TEST(ChaosCli, BenchOutputByteIdenticalUnderEngineFaults)
{
    TempDir tmp;
    const std::string args = "bench --only=fig8 --format=text";
    const std::string outClean = tmp.path + "/clean.out";
    const std::string outFault = tmp.path + "/fault.out";
    const std::string errFile = tmp.path + "/err";

    ASSERT_EQ(runCli("", args, outClean, errFile), 0) << slurp(errFile);
    // The acceptance bar: any single fault class at rate <= 0.1 leaves
    // the bench bytes untouched (stderr may report retries).
    ASSERT_EQ(runCli("GS_FAULT=engine:throw:0.1:1", args, outFault,
                     errFile),
              0)
        << slurp(errFile);
    const std::string clean = slurp(outClean);
    ASSERT_FALSE(clean.empty());
    EXPECT_EQ(clean, slurp(outFault));
}

TEST(ChaosCli, RunOutputByteIdenticalUnderStoreFaults)
{
    TempDir tmp;
    const std::string args = "run BT --mode gscalar --power";
    const std::string outClean = tmp.path + "/clean.out";
    const std::string errFile = tmp.path + "/err";
    ASSERT_EQ(runCli("", args, outClean, errFile), 0) << slurp(errFile);
    const std::string clean = slurp(outClean);
    ASSERT_FALSE(clean.empty());

    int seed = 2;
    for (const char *kind : {"short-write", "rename-fail", "bit-flip"}) {
        const std::string cache = tmp.path + "/cache-" + kind;
        const std::string out = tmp.path + "/" + kind + ".out";
        const std::string env = "GS_CACHE_DIR='" + cache +
                                "' GS_FAULT=store:" + kind + ":1:" +
                                std::to_string(seed++);
        // Twice against the same cache: the first process exercises the
        // store path under fault, the second the load/quarantine path.
        ASSERT_EQ(runCli(env, args, out, errFile), 0)
            << kind << ": " << slurp(errFile);
        EXPECT_EQ(clean, slurp(out)) << kind;
        ASSERT_EQ(runCli(env, args, out, errFile), 0)
            << kind << ": " << slurp(errFile);
        EXPECT_EQ(clean, slurp(out)) << kind;
    }
}

TEST(ChaosCli, MalformedFaultSpecsAreRejected)
{
    TempDir tmp;
    const std::string out = tmp.path + "/out";
    const std::string err = tmp.path + "/err";
    EXPECT_NE(runCli("GS_FAULT=gpu:throw:1", "list", out, err), 0);
    EXPECT_NE(slurp(err).find("GS_FAULT"), std::string::npos);
    EXPECT_NE(runCli("", "run BT --fault engine:throw:2", out, err), 0);
    EXPECT_NE(slurp(err).find("--fault"), std::string::npos);
    // A well-formed spec is accepted.
    EXPECT_EQ(runCli("GS_FAULT=engine:throw:0", "list", out, err), 0);
}
