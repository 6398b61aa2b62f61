/**
 * @file
 * gscalard tests (serve/server.hpp + serve/client.hpp): one in-process
 * server per test on a throwaway socket path. Covers ping, result
 * correctness against a direct simulation, concurrent clients sharing
 * one engine, malformed input handling, stale-socket recovery, and the
 * SIGINT drain (an in-flight request still gets its response).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "harness/engine.hpp"
#include "harness/runner.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "store/serial.hpp"

namespace fs = std::filesystem;
using namespace gs;

namespace
{

/** Short throwaway socket path (sun_path caps at ~108 bytes). */
struct TempSocket
{
    std::string path;

    TempSocket()
    {
        static std::atomic<unsigned> counter{0};
        path = (fs::temp_directory_path() /
                ("gsd-test-" + std::to_string(::getpid()) + "-" +
                 std::to_string(counter.fetch_add(1)) + ".sock"))
                   .string();
    }

    ~TempSocket() { ::unlink(path.c_str()); }
};

GscalarServer::Options
optsFor(const TempSocket &sock)
{
    GscalarServer::Options o;
    o.socketPath = sock.path;
    return o;
}

} // namespace

TEST(GscalarServer, PingPong)
{
    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer server(engine, optsFor(sock));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    EXPECT_TRUE(server.running());

    GscalarClient client(sock.path);
    EXPECT_TRUE(client.ping(&err)) << err;
    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(GscalarServer, ServedResultMatchesDirectSimulation)
{
    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer server(engine, optsFor(sock));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    ArchConfig cfg;
    cfg.mode = ArchMode::GScalarFull;
    GscalarClient client(sock.path);
    const std::optional<RunResult> served =
        client.run("BT", cfg, &err);
    ASSERT_TRUE(served.has_value()) << err;

    const RunResult direct = runWorkload("BT", cfg);
    EXPECT_EQ(served->workload, direct.workload);
    EXPECT_EQ(served->mode, direct.mode);
    EXPECT_EQ(served->ev.cycles, direct.ev.cycles);
    EXPECT_EQ(served->ev.warpInsts, direct.ev.warpInsts);
    EXPECT_DOUBLE_EQ(served->power.totalW, direct.power.totalW);
    EXPECT_EQ(server.requestsServed(), 1u);
    server.stop();
}

TEST(GscalarServer, ConcurrentClientsShareOneEngine)
{
    TempSocket sock;
    ExperimentEngine engine(2);
    GscalarServer server(engine, optsFor(sock));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // Several clients ask for the same point plus one distinct point:
    // every reply must be correct, and the shared run cache must have
    // collapsed the duplicates into one simulation.
    constexpr int kClients = 5;
    std::atomic<int> okCount{0};
    std::vector<std::thread> threads;
    std::uint64_t expect[kClients] = {};
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            ArchConfig cfg;
            cfg.mode = (i == kClients - 1) ? ArchMode::Baseline
                                           : ArchMode::GScalarFull;
            GscalarClient client(sock.path);
            std::string cerr2;
            const std::optional<RunResult> r =
                client.run("BT", cfg, &cerr2);
            if (r && r->ev.cycles > 0) {
                expect[i] = r->ev.cycles;
                okCount.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(okCount.load(), kClients);
    EXPECT_EQ(server.requestsServed(), std::uint64_t(kClients));
    // Identical requests agree with each other.
    for (int i = 1; i + 1 < kClients; ++i)
        EXPECT_EQ(expect[i], expect[0]);
    // Duplicates never re-simulate: there are two unique points, so
    // the engine computed exactly twice. Each duplicate was an engine
    // cache hit: it joined the run in flight (a coalesced follower) or
    // arrived after the run had landed (a memo hit).
    EXPECT_EQ(engine.cacheStats().misses, 2u);
    EXPECT_EQ(engine.cacheStats().hits, std::uint64_t(kClients) - 2);
    EXPECT_LE(server.coalesceFollowers(), std::uint64_t(kClients) - 2);
    EXPECT_EQ(server.coalesceLeaders(), 2u);
    server.stop();
}

TEST(GscalarServer, BadRequestsGetErrorsNotCrashes)
{
    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer server(engine, optsFor(sock));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    GscalarClient client(sock.path);

    // Unknown workload.
    RunRequest unknown;
    unknown.workload = "NOPE";
    std::optional<RunResponse> resp = client.exchange(unknown, &err);
    ASSERT_TRUE(resp.has_value()) << err;
    EXPECT_EQ(resp->status, ResponseStatus::BadRequest);
    EXPECT_NE(resp->error.find("NOPE"), std::string::npos);

    // Invalid configuration (fails ArchConfig::check()).
    RunRequest badReq;
    badReq.workload = "BT";
    badReq.cfg.warpSize = 0;
    resp = client.exchange(badReq, &err);
    ASSERT_TRUE(resp.has_value()) << err;
    EXPECT_EQ(resp->status, ResponseStatus::BadRequest);

    // Garbage frames: the reply is BadRequest (or a dropped
    // connection), never a crash.
    {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      sock.path.c_str());
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);

        // A valid blob of a kind the server does not expect.
        ByteWriter w(BlobKind::Pong);
        ASSERT_TRUE(writeFrame(fd, w.finish()));
        std::vector<std::uint8_t> payload;
        ASSERT_EQ(readFrame(fd, payload, &err), 1) << err;
        const std::optional<RunResponse> junkResp =
            deserializeResponse(payload.data(), payload.size(), &err);
        ASSERT_TRUE(junkResp.has_value()) << err;
        EXPECT_EQ(junkResp->status, ResponseStatus::BadRequest);

        // Bytes that are not even an envelope: same outcome.
        const std::vector<std::uint8_t> noise(32, 0x5a);
        ASSERT_TRUE(writeFrame(fd, noise));
        ASSERT_EQ(readFrame(fd, payload, &err), 1) << err;
        const std::optional<RunResponse> noiseResp =
            deserializeResponse(payload.data(), payload.size(), &err);
        ASSERT_TRUE(noiseResp.has_value()) << err;
        EXPECT_EQ(noiseResp->status, ResponseStatus::BadRequest);
        ::close(fd);
    }
    // A fresh client is still served afterwards.
    GscalarClient again(sock.path);
    EXPECT_TRUE(again.ping(&err)) << err;
    server.stop();
}

TEST(GscalarServer, StaleSocketFileIsReplaced)
{
    TempSocket sock;
    // Leave a bound-but-dead socket file behind.
    {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      sock.path.c_str());
        ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        ::close(fd); // no listen(): connect() will be refused
    }
    ASSERT_TRUE(fs::exists(sock.path));

    ExperimentEngine engine(1);
    GscalarServer server(engine, optsFor(sock));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    GscalarClient client(sock.path);
    EXPECT_TRUE(client.ping(&err)) << err;
    server.stop();
}

TEST(GscalarServer, SecondServerOnLiveSocketRefused)
{
    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer first(engine, optsFor(sock));
    std::string err;
    ASSERT_TRUE(first.start(&err)) << err;

    GscalarServer second(engine, optsFor(sock));
    EXPECT_FALSE(second.start(&err));
    EXPECT_NE(err.find("already"), std::string::npos);
    first.stop();
}

TEST(GscalarServer, SigintDrainsInFlightRequests)
{
    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer server(engine, optsFor(sock));
    std::string err;
    ASSERT_TRUE(server.installSignalHandlers(&err)) << err;
    ASSERT_TRUE(server.start(&err)) << err;

    // Launch a request, then SIGINT the process while it is (likely
    // still) in flight. The drain must deliver the response before
    // wait() returns, whatever the interleaving.
    std::optional<RunResult> got;
    std::string cerr2;
    std::thread clientThread([&] {
        ArchConfig cfg;
        cfg.mode = ArchMode::WarpedCompression;
        GscalarClient client(sock.path);
        got = client.run("BT", cfg, &cerr2);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_EQ(::kill(::getpid(), SIGINT), 0);
    server.wait();
    clientThread.join();

    EXPECT_FALSE(server.running());
    ASSERT_TRUE(got.has_value()) << cerr2;
    EXPECT_EQ(got->workload, "BT");
    EXPECT_GT(got->ev.cycles, 0u);
    EXPECT_EQ(server.requestsServed(), 1u);

    // New connections are refused once the socket is gone.
    GscalarClient late(sock.path);
    EXPECT_FALSE(late.ping(&err));
}

TEST(GscalarServer, StopIsIdempotentAndRestartable)
{
    TempSocket sock;
    ExperimentEngine engine(1);
    std::string err;
    {
        GscalarServer server(engine, optsFor(sock));
        ASSERT_TRUE(server.start(&err)) << err;
        server.stop();
        server.stop(); // no-op
    }
    // The path is reusable by a fresh server immediately.
    GscalarServer next(engine, optsFor(sock));
    ASSERT_TRUE(next.start(&err)) << err;
    GscalarClient client(sock.path);
    EXPECT_TRUE(client.ping(&err)) << err;
    next.stop();
}

TEST(GscalarServer, StatsRoundTrip)
{
    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer server(engine, optsFor(sock));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    GscalarClient client(sock.path);

    // Before any run: counters are zero but the reply is well-formed.
    std::optional<DaemonStats> s = client.stats(&err);
    ASSERT_TRUE(s.has_value()) << err;
    EXPECT_EQ(s->requestsServed, 0u);
    EXPECT_GE(s->uptimeSeconds, 0.0);
    EXPECT_EQ(s->jobs, 1u);
    EXPECT_TRUE(s->workloads.empty());

    // Two runs of the same point: one simulation, one memo hit, both
    // recorded in the per-workload latency histogram.
    ArchConfig cfg;
    ASSERT_TRUE(client.run("BT", cfg, &err).has_value()) << err;
    ASSERT_TRUE(client.run("BT", cfg, &err).has_value()) << err;

    s = client.stats(&err);
    ASSERT_TRUE(s.has_value()) << err;
    EXPECT_EQ(s->requestsServed, 2u);
    EXPECT_EQ(s->cacheMisses, 1u);
    EXPECT_EQ(s->cacheHits, 1u);
    EXPECT_GT(s->simCycles, 0u);
    EXPECT_GT(s->warpInsts, 0u);
    ASSERT_EQ(s->workloads.size(), 1u);
    EXPECT_EQ(s->workloads[0].workload, "BT");
    EXPECT_EQ(s->workloads[0].latency.count(), 2u);
    EXPECT_GT(s->workloads[0].latency.maxSeconds(), 0.0);
    std::uint64_t bucketSum = 0;
    for (const std::uint64_t b : s->workloads[0].latency.buckets())
        bucketSum += b;
    EXPECT_EQ(bucketSum, 2u);

    server.stop();
}

TEST(GscalarServer, StatsSerializationSurvivesTheWire)
{
    // Pure protocol round-trip, no sockets: every field and nested
    // histogram must come back bit-identical.
    DaemonStats s;
    s.uptimeSeconds = 12.5;
    s.requestsServed = 42;
    s.activeConnections = 3;
    s.jobs = 8;
    s.queueDepth = 2;
    s.peakQueueDepth = 7;
    s.cacheHits = 10;
    s.cacheMisses = 5;
    s.diskCacheHits = 1;
    s.diskCacheStores = 4;
    s.simWallSeconds = 3.25;
    s.simCycles = 123456789;
    s.warpInsts = 987654321;
    s.overloads = 6;
    s.idleCloses = 2;
    s.frameRejects = 1;
    s.coalesceLeaders = 9;
    s.coalesceFollowers = 33;
    s.batches = 14;
    s.batchPeak = 4;
    s.queueSheds = 5;
    s.queueDepths = {3, 2, 1};
    s.queuePeaks = {8, 6, 4};
    s.reactorLoop.record(0.0001);
    s.reactorLoop.record(0.01);
    WorkloadLatency wl;
    wl.workload = "BT";
    wl.latency.record(0.005);
    wl.latency.record(0.5);
    wl.latency.record(20.0);
    s.workloads.push_back(wl);
    wl.workload = "MM";
    s.workloads.push_back(wl);

    const std::vector<std::uint8_t> blob = serializeStatsResponse(s);
    EXPECT_EQ(peekKind(blob.data(), blob.size()),
              BlobKind::StatsResponse);

    std::string err;
    const std::optional<DaemonStats> back =
        deserializeStatsResponse(blob.data(), blob.size(), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_DOUBLE_EQ(back->uptimeSeconds, 12.5);
    EXPECT_EQ(back->requestsServed, 42u);
    EXPECT_EQ(back->activeConnections, 3u);
    EXPECT_EQ(back->jobs, 8u);
    EXPECT_EQ(back->queueDepth, 2u);
    EXPECT_EQ(back->peakQueueDepth, 7u);
    EXPECT_EQ(back->cacheHits, 10u);
    EXPECT_EQ(back->cacheMisses, 5u);
    EXPECT_EQ(back->diskCacheHits, 1u);
    EXPECT_EQ(back->diskCacheStores, 4u);
    EXPECT_DOUBLE_EQ(back->simWallSeconds, 3.25);
    EXPECT_EQ(back->simCycles, 123456789u);
    EXPECT_EQ(back->warpInsts, 987654321u);
    EXPECT_EQ(back->overloads, 6u);
    EXPECT_EQ(back->idleCloses, 2u);
    EXPECT_EQ(back->frameRejects, 1u);
    EXPECT_EQ(back->coalesceLeaders, 9u);
    EXPECT_EQ(back->coalesceFollowers, 33u);
    EXPECT_EQ(back->batches, 14u);
    EXPECT_EQ(back->batchPeak, 4u);
    EXPECT_EQ(back->queueSheds, 5u);
    EXPECT_EQ(back->queueDepths, s.queueDepths);
    EXPECT_EQ(back->queuePeaks, s.queuePeaks);
    EXPECT_EQ(back->reactorLoop.count(), 2u);
    EXPECT_DOUBLE_EQ(back->reactorLoop.totalSeconds(), 0.0101);
    EXPECT_EQ(back->reactorLoop.buckets(), s.reactorLoop.buckets());
    ASSERT_EQ(back->workloads.size(), 2u);
    EXPECT_EQ(back->workloads[0].workload, "BT");
    EXPECT_EQ(back->workloads[1].workload, "MM");
    for (const WorkloadLatency &got : back->workloads) {
        EXPECT_EQ(got.latency.count(), 3u);
        EXPECT_DOUBLE_EQ(got.latency.totalSeconds(), 20.505);
        EXPECT_DOUBLE_EQ(got.latency.maxSeconds(), 20.0);
        EXPECT_EQ(got.latency.buckets(), wl.latency.buckets());
    }

    // Corruption is caught by the checksum, not parsed into garbage.
    std::vector<std::uint8_t> bad = blob;
    bad[bad.size() / 2] ^= 0x40;
    EXPECT_FALSE(
        deserializeStatsResponse(bad.data(), bad.size()).has_value());

    // An older daemon's blob still carries retired tag 20 (coalesce
    // promotions): the reader skips it.
    ByteWriter old(BlobKind::StatsResponse);
    old.field(std::uint16_t(18), std::uint64_t(9));
    old.field(std::uint16_t(20), std::uint64_t(1));
    old.field(std::uint16_t(21), std::uint64_t(4));
    const std::vector<std::uint8_t> oldBlob = old.finish();
    const std::optional<DaemonStats> oldStats =
        deserializeStatsResponse(oldBlob.data(), oldBlob.size(), &err);
    ASSERT_TRUE(oldStats.has_value()) << err;
    EXPECT_EQ(oldStats->coalesceLeaders, 9u);
    EXPECT_EQ(oldStats->batches, 4u);
}

TEST(GscalarServer, OversizedConfigIsBadRequestAndServingGoesOn)
{
    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer server(engine, optsFor(sock));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // Well framed and well formed, but 10^9 SMs: check() must refuse it
    // before anything is allocated.
    RunRequest huge;
    huge.workload = "BT";
    huge.cfg.numSms = 1'000'000'000;
    GscalarClient client(sock.path);
    const std::optional<RunResponse> resp = client.exchange(huge, &err);
    ASSERT_TRUE(resp.has_value()) << err;
    EXPECT_EQ(resp->status, ResponseStatus::BadRequest);
    EXPECT_NE(resp->error.find("numSms"), std::string::npos)
        << resp->error;

    // Another connection is still served, simulation included.
    ArchConfig small;
    small.numSms = 1;
    GscalarClient again(sock.path);
    const std::optional<RunResult> served = again.run("LC", small, &err);
    ASSERT_TRUE(served.has_value()) << err;
    EXPECT_GT(served->ev.cycles, 0u);
    server.stop();
}

namespace
{

/** parseServeFlags() over @p args (argv[0] excluded). */
std::string
parseFlags(std::vector<std::string> args, GscalarServer::Options &opts,
           int *stoppedAt = nullptr)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    int i = 0;
    const std::string err =
        parseServeFlags(int(argv.size()), argv.data(), i, opts);
    if (stoppedAt)
        *stoppedAt = i;
    return err;
}

} // namespace

TEST(ServeFlags, AcceptsInRangeValues)
{
    GscalarServer::Options o;
    EXPECT_EQ(parseFlags({"--socket", "/tmp/x.sock", "--timeout", "0",
                          "--idle-timeout", "86400", "--max-connections",
                          "4294967295", "--max-frame-bytes", "16777216",
                          "--max-queued", "0"},
                         o),
              "");
    EXPECT_EQ(o.socketPath, "/tmp/x.sock");
    EXPECT_EQ(o.requestTimeoutSec, 0.0);
    EXPECT_EQ(o.idleTimeoutSec, 86400.0);
    EXPECT_EQ(o.maxConnections, 4294967295u);
    EXPECT_EQ(o.maxFrameBytes, kMaxFrameBytes);
    EXPECT_EQ(o.maxQueuedRuns, 0u);
    EXPECT_EQ(parseFlags({"--timeout", "2.5"}, o), "");
    EXPECT_EQ(o.requestTimeoutSec, 2.5);
}

TEST(ServeFlags, RejectsHostileValues)
{
    // Only the parser runs: no daemon starts, no thread is spawned.
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"--timeout", "inf"},           {"--timeout", "nan"},
        {"--timeout", "-1"},            {"--timeout", "86401"},
        {"--timeout", "1e3"},           {"--timeout", ""},
        {"--timeout", "0x10"},          {"--idle-timeout", "1e309"},
        {"--idle-timeout", "abc"},      {"--max-connections", "-1"},
        {"--max-connections", "4294967296"},
        {"--max-frame-bytes", "0"},     {"--max-frame-bytes", "16777217"},
        {"--max-queued", "x"},          {"--max-queued", "99999999999"},
        {"--tcp", "nohost"},
    };
    for (const auto &[flag, value] : bad) {
        GscalarServer::Options o;
        const std::string err = parseFlags({flag, value}, o);
        EXPECT_NE(err.find(flag), std::string::npos)
            << flag << " '" << value << "' accepted";
    }
    GscalarServer::Options o;
    EXPECT_NE(parseFlags({"--max-queued"}, o).find("needs a value"),
              std::string::npos);
}

TEST(ServeFlags, StopsAtTheFirstUnknownArgument)
{
    GscalarServer::Options o;
    int at = -1;
    // Process-wide flags and their values are stepped over.
    EXPECT_EQ(parseFlags({"--jobs", "2", "--codec", "bdi", "--cache",
                          "--max-queued", "7", "--fault=serve:stall:0",
                          "--help", "--max-queued", "9"},
                         o, &at),
              "");
    EXPECT_EQ(at, 8);
    EXPECT_EQ(o.maxQueuedRuns, 7u);

    // The retired --service-threads is not a daemon flag: parsing stops
    // there, and both binaries reject it as an unknown option.
    at = -1;
    EXPECT_EQ(parseFlags({"--service-threads", "2"}, o, &at), "");
    EXPECT_EQ(at, 0);
}
