/**
 * @file
 * Reactor serving-tier tests (serve/server.hpp): epoll connection
 * lifecycle (EOF reclaims the slot with no further accept), in-flight
 * joins and memo hits in the engine (one computation, byte-identical
 * responses), a retried engine fault under joined waiters, priority
 * admission control and inheritance, request deadlines that outlive
 * the server, error replies that keep the daemon serving, the TCP
 * listener, and strict connect-target parsing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "fault/fault.hpp"
#include "gen/generator.hpp"
#include "harness/engine.hpp"
#include "harness/runner.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

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
                ("gsr-test-" + std::to_string(::getpid()) + "-" +
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

/** Spin until @p pred holds or ~2 s pass. */
template <typename Pred>
bool
eventually(Pred pred)
{
    for (int i = 0; i < 200; ++i) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
}

std::vector<std::uint8_t>
requestBlob(std::uint64_t seed, std::uint32_t priority,
            const std::string &workload = "BT")
{
    RunRequest req;
    req.workload = workload;
    req.cfg.seed = seed;
    req.priority = priority;
    return serializeRequest(req);
}

/** Read one response frame off @p fd: its raw bytes and parse. */
std::pair<std::vector<std::uint8_t>, RunResponse>
readResponse(int fd)
{
    std::string err;
    std::vector<std::uint8_t> payload;
    EXPECT_EQ(readFrame(fd, payload, &err), 1) << err;
    std::optional<RunResponse> resp =
        deserializeResponse(payload.data(), payload.size(), &err);
    EXPECT_TRUE(resp.has_value()) << err;
    return {payload, resp.value_or(RunResponse{})};
}

/** Queued engine runs over all bands, as the stats probe reports. */
std::uint64_t
queuedTotal(const GscalarServer &server)
{
    const DaemonStats s = server.stats();
    return s.queueDepths[0] + s.queueDepths[1] + s.queueDepths[2];
}

} // namespace

TEST(ReactorServe, EofReclaimsConnectionSlotImmediately)
{
    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer::Options o;
    o.socketPath = sock.path;
    GscalarServer server(engine, o);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    const int fd = rawConnect(sock.path);
    ASSERT_TRUE(writeFrame(fd, serializePing()));
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(readFrame(fd, payload, &err), 1) << err;
    EXPECT_EQ(server.activeConnections(), 1u);

    // EOF alone must reclaim the slot: no further connect (the old
    // thread-per-connection server only reaped dead slots when the
    // *next* accept scanned for them).
    ::close(fd);
    EXPECT_TRUE(eventually(
        [&] { return server.activeConnections() == 0; }))
        << "slot still held " << server.activeConnections();
    server.stop();
}

TEST(ReactorServe, CoalescingComputesOnceByteIdentically)
{
    TempSocket sock;
    ExperimentEngine engine(2);
    GscalarServer::Options o;
    o.socketPath = sock.path;
    GscalarServer server(engine, o);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // K clients submit the identical (workload, fingerprint) point.
    // All submits are written before any response is read, so the
    // duplicates are in flight together.
    constexpr int kClients = 6;
    const std::vector<std::uint8_t> blob =
        requestBlob(/*seed=*/7, kDefaultPriority);
    int fds[kClients];
    for (int i = 0; i < kClients; ++i) {
        fds[i] = rawConnect(sock.path);
        ASSERT_TRUE(writeFrame(fds[i], blob));
    }

    std::vector<std::uint8_t> first;
    for (int i = 0; i < kClients; ++i) {
        std::vector<std::uint8_t> payload;
        ASSERT_EQ(readFrame(fds[i], payload, &err), 1) << err;
        const std::optional<RunResponse> resp =
            deserializeResponse(payload.data(), payload.size(), &err);
        ASSERT_TRUE(resp.has_value()) << err;
        EXPECT_EQ(resp->status, ResponseStatus::Ok) << resp->error;
        EXPECT_GT(resp->result.ev.cycles, 0u);
        if (i == 0)
            first = payload;
        else
            EXPECT_EQ(payload, first)
                << "client " << i << " got different response bytes";
        ::close(fds[i]);
    }

    // Counter-verified: the engine simulated exactly once; every
    // duplicate joined the run in flight (a follower) or, if it arrived
    // after the run landed, was a memo hit.
    EXPECT_EQ(engine.cacheStats().misses, 1u);
    EXPECT_EQ(engine.cacheStats().hits, std::uint64_t(kClients) - 1);
    EXPECT_LE(server.coalesceFollowers(), std::uint64_t(kClients) - 1);
    EXPECT_EQ(server.coalesceLeaders(), 1u);
    EXPECT_EQ(server.requestsServed(), std::uint64_t(kClients));

    // The coalescing tier shows up in the stats probe too.
    GscalarClient probe(sock.path);
    const std::optional<DaemonStats> s = probe.stats(&err);
    ASSERT_TRUE(s.has_value()) << err;
    EXPECT_EQ(s->coalesceLeaders, server.coalesceLeaders());
    EXPECT_EQ(s->coalesceFollowers, server.coalesceFollowers());
    EXPECT_GE(s->batches, 1u);
    EXPECT_GT(s->reactorLoop.count(), 0u);
    server.stop();
}

TEST(ReactorServe, EngineThrowIsRetriedAndJoinedWaitersGetCleanBytes)
{
    DisarmAtExit disarm;
    arm("engine:throw:1:7");

    TempSocket sock;
    ExperimentEngine engine(2);
    GscalarServer::Options o;
    o.socketPath = sock.path;
    GscalarServer server(engine, o);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // The run's first attempt always throws (rate 1); the engine
    // retries it exempt from injection, and every waiter joined to it
    // still gets the answer.
    constexpr int kClients = 4;
    const std::vector<std::uint8_t> blob =
        requestBlob(/*seed=*/11, kDefaultPriority);
    int fds[kClients];
    for (int i = 0; i < kClients; ++i) {
        fds[i] = rawConnect(sock.path);
        ASSERT_TRUE(writeFrame(fds[i], blob));
    }

    std::vector<std::uint8_t> first;
    for (int i = 0; i < kClients; ++i) {
        const auto [payload, resp] = readResponse(fds[i]);
        EXPECT_EQ(resp.status, ResponseStatus::Ok) << resp.error;
        if (i == 0)
            first = payload;
        else
            EXPECT_EQ(payload, first);
        ::close(fds[i]);
    }
    EXPECT_GE(engine.cacheStats().runRetries, 1u);
    EXPECT_EQ(engine.cacheStats().misses, 1u);
    server.stop();

    // The served bytes are those of a fault-free direct simulation.
    faultInjector().disarm();
    ArchConfig cfg;
    cfg.seed = 11;
    RunResponse direct;
    direct.status = ResponseStatus::Ok;
    direct.result = runWorkload("BT", cfg);
    const RunResult served =
        deserializeResponse(first.data(), first.size())->result;
    direct.result.wallSeconds = served.wallSeconds; // host time only
    EXPECT_EQ(first, serializeResponse(direct));
}

TEST(ReactorServe, SpuriousEpollWakeupsAreAbsorbed)
{
    DisarmAtExit disarm;
    arm("serve:epoll-spurious:1:3");

    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer::Options o;
    o.socketPath = sock.path;
    GscalarServer server(engine, o);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // The reactor drops (bounded) iterations on the floor; level-
    // triggered epoll re-reports everything, so service is merely
    // delayed, never wrong.
    GscalarClient client(sock.path);
    EXPECT_TRUE(client.ping(&err)) << err;
    ArchConfig cfg;
    const std::optional<RunResult> served =
        client.run("BT", cfg, &err);
    ASSERT_TRUE(served.has_value()) << err;
    EXPECT_GE(faultInjector().injectedAt("serve"), 1u);
    server.stop();

    faultInjector().disarm();
    const RunResult direct = runWorkload("BT", cfg);
    EXPECT_EQ(served->ev.cycles, direct.ev.cycles);
}

TEST(ReactorServe, AdmissionShedsLowestBandFirst)
{
    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer::Options o;
    o.socketPath = sock.path;
    o.maxQueuedRuns = 1;
    GscalarServer server(engine, o);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // A occupies the engine's single worker...
    const int fdA = rawConnect(sock.path);
    ASSERT_TRUE(writeFrame(fdA, requestBlob(101, 1)));
    ASSERT_TRUE(eventually([&] {
        return server.coalesceLeaders() >= 1 && queuedTotal(server) == 0;
    }));

    // ...B fills the one queue slot at the lowest band...
    const int fdB = rawConnect(sock.path);
    ASSERT_TRUE(writeFrame(fdB, requestBlob(102, 0)));
    ASSERT_TRUE(eventually([&] { return queuedTotal(server) == 1; }));

    // ...so a higher-band C evicts B (Overloaded), ...
    const int fdC = rawConnect(sock.path);
    ASSERT_TRUE(writeFrame(fdC, requestBlob(103, 2)));
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(readFrame(fdB, payload, &err), 1) << err;
    std::optional<RunResponse> resp =
        deserializeResponse(payload.data(), payload.size(), &err);
    ASSERT_TRUE(resp.has_value()) << err;
    EXPECT_EQ(resp->status, ResponseStatus::Overloaded);
    EXPECT_NE(resp->error.find("shed by a higher-priority arrival"),
              std::string::npos)
        << resp->error;

    // ...and a lowest-band D cannot evict anything: it is shed itself.
    const int fdD = rawConnect(sock.path);
    ASSERT_TRUE(writeFrame(fdD, requestBlob(104, 0)));
    ASSERT_EQ(readFrame(fdD, payload, &err), 1) << err;
    resp = deserializeResponse(payload.data(), payload.size(), &err);
    ASSERT_TRUE(resp.has_value()) << err;
    EXPECT_EQ(resp->status, ResponseStatus::Overloaded);
    EXPECT_NE(resp->error.find("admission queue full"),
              std::string::npos)
        << resp->error;

    // A and C still complete.
    for (const int fd : {fdA, fdC}) {
        ASSERT_EQ(readFrame(fd, payload, &err), 1) << err;
        resp = deserializeResponse(payload.data(), payload.size(), &err);
        ASSERT_TRUE(resp.has_value()) << err;
        EXPECT_EQ(resp->status, ResponseStatus::Ok) << resp->error;
    }
    EXPECT_GE(server.stats().queueSheds, 2u);
    for (const int fd : {fdA, fdB, fdC, fdD})
        ::close(fd);
    server.stop();
}

TEST(ReactorServe, PriorityInheritanceKeepsAJoinedRunQueued)
{
    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer::Options o;
    o.socketPath = sock.path;
    o.maxQueuedRuns = 1;
    GscalarServer server(engine, o);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // A occupies the single worker; B waits in the one queue slot at
    // band 0.
    const int fdA = rawConnect(sock.path);
    ASSERT_TRUE(writeFrame(fdA, requestBlob(201, 1)));
    ASSERT_TRUE(eventually([&] {
        return server.coalesceLeaders() >= 1 && queuedTotal(server) == 0;
    }));
    const int fdB = rawConnect(sock.path);
    ASSERT_TRUE(writeFrame(fdB, requestBlob(202, 0)));
    ASSERT_TRUE(eventually([&] { return queuedTotal(server) == 1; }));

    // A band-2 request for B's point joins B and lifts it to band 2...
    const int fdB2 = rawConnect(sock.path);
    ASSERT_TRUE(writeFrame(fdB2, requestBlob(202, 2)));
    ASSERT_TRUE(eventually(
        [&] { return server.stats().queueDepths[2] == 1; }));
    EXPECT_EQ(server.coalesceFollowers(), 1u);

    // ...so a band-1 arrival finds nothing below it to evict and is
    // shed itself, while B stays queued.
    const int fdC = rawConnect(sock.path);
    ASSERT_TRUE(writeFrame(fdC, requestBlob(203, 1)));
    auto [bytesC, respC] = readResponse(fdC);
    EXPECT_EQ(respC.status, ResponseStatus::Overloaded);
    EXPECT_NE(respC.error.find("admission queue full"), std::string::npos)
        << respC.error;

    EXPECT_EQ(readResponse(fdA).second.status, ResponseStatus::Ok);
    const auto [bytesB, respB] = readResponse(fdB);
    EXPECT_EQ(respB.status, ResponseStatus::Ok) << respB.error;
    EXPECT_EQ(readResponse(fdB2).first, bytesB);
    EXPECT_EQ(engine.cacheStats().misses, 2u); // A and B only
    for (const int fd : {fdA, fdB, fdB2, fdC})
        ::close(fd);
    server.stop();
}

TEST(ReactorServe, JoinsAndMemoHitsGetTheFirstResponseBytes)
{
    DisarmAtExit disarm;
    // Every run sleeps first, so the duplicates below arrive while the
    // one computation is still in flight.
    arm("engine:slow:1:4");

    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer::Options o;
    o.socketPath = sock.path;
    GscalarServer server(engine, o);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    constexpr int kJoiners = 3;
    const std::vector<std::uint8_t> blob = requestBlob(31, 1);
    int fds[kJoiners + 1];
    for (int &fd : fds) {
        fd = rawConnect(sock.path);
        ASSERT_TRUE(writeFrame(fd, blob));
    }
    const std::vector<std::uint8_t> first = readResponse(fds[0]).first;
    for (int i = 1; i <= kJoiners; ++i)
        EXPECT_EQ(readResponse(fds[i]).first, first) << "joiner " << i;
    EXPECT_GE(server.coalesceFollowers(), 1u);

    // After the run landed: a memo hit, answered without a worker.
    const int late = rawConnect(sock.path);
    ASSERT_TRUE(writeFrame(late, blob));
    EXPECT_EQ(readResponse(late).first, first);
    EXPECT_EQ(engine.cacheStats().misses, 1u);
    EXPECT_EQ(engine.cacheStats().hits, std::uint64_t(kJoiners) + 1);
    EXPECT_EQ(server.coalesceLeaders(), 1u);
    for (const int fd : fds)
        ::close(fd);
    ::close(late);
    server.stop();
}

TEST(ReactorServe, TimedOutRunOutlivesTheServer)
{
    DisarmAtExit disarm;
    arm("engine:slow:1:5"); // the run sleeps 50 ms before simulating
    ExperimentEngine engine(1);
    {
        TempSocket sock;
        GscalarServer::Options o;
        o.socketPath = sock.path;
        o.requestTimeoutSec = 0.005;
        GscalarServer server(engine, o);
        std::string err;
        ASSERT_TRUE(server.start(&err)) << err;

        const int fd = rawConnect(sock.path);
        ASSERT_TRUE(writeFrame(fd, requestBlob(41, 1)));
        const RunResponse resp = readResponse(fd).second;
        EXPECT_EQ(resp.status, ResponseStatus::Timeout);
        EXPECT_EQ(resp.error, "simulation exceeded the request budget");
        ::close(fd);
        // Stop and destroy the server while its run still sleeps or
        // computes.
        server.stop();
    }
    // The run completes later; its callback posts to a mailbox that
    // outlived the server, and its result is in the memo cache.
    ArchConfig cfg;
    cfg.seed = 41;
    const RunResult r = engine.run("BT", cfg);
    EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(engine.cacheStats().misses, 1u);
}

TEST(ReactorServe, BadNamesAndUnhostableConfigsAnswerAndServingGoesOn)
{
    registerGenWorkloads();
    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer::Options o;
    o.socketPath = sock.path;
    GscalarServer server(engine, o);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    GscalarClient client(sock.path);

    // A malformed gen: name is refused parse-only, on the reactor.
    RunRequest bogus;
    bogus.workload = "gen:bogus";
    std::optional<RunResponse> resp = client.exchange(bogus, &err);
    ASSERT_TRUE(resp.has_value()) << err;
    EXPECT_EQ(resp->status, ResponseStatus::BadRequest);
    EXPECT_NE(resp->error.find("wants knob=value"), std::string::npos)
        << resp->error;

    // BT's CTAs do not fit 32 threads per SM. The config passes
    // check(), so each distinct one reaches the engine and fails there
    // without a retry; three of them must not degrade the engine.
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        RunRequest tiny;
        tiny.workload = "BT";
        tiny.cfg.maxThreadsPerSm = 32;
        tiny.cfg.seed = seed;
        ASSERT_EQ(tiny.cfg.check(), "");
        resp = client.exchange(tiny, &err);
        ASSERT_TRUE(resp.has_value()) << err;
        EXPECT_EQ(resp->status, ResponseStatus::InternalError);
        EXPECT_NE(resp->error.find("exceeds the SM limit"),
                  std::string::npos)
            << resp->error;
    }
    EXPECT_FALSE(engine.degraded());
    EXPECT_EQ(engine.cacheStats().runRetries, 0u);
    EXPECT_EQ(engine.cacheStats().runFailures, 3u);

    ArchConfig cfg;
    const std::optional<RunResult> served = client.run("BT", cfg, &err);
    ASSERT_TRUE(served.has_value()) << err;
    EXPECT_GT(served->ev.cycles, 0u);
    server.stop();
}

TEST(ReactorServe, TcpRoundTrip)
{
    TempSocket sock;
    ExperimentEngine engine(1);
    GscalarServer::Options o;
    o.socketPath = sock.path;
    o.tcpBind = "127.0.0.1:0"; // ephemeral port
    GscalarServer server(engine, o);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ASSERT_GT(server.tcpPort(), 0);

    ConnectTarget target;
    target.host = "127.0.0.1";
    target.port = server.tcpPort();
    GscalarClient client(target);
    EXPECT_EQ(client.socketPath().rfind("tcp://127.0.0.1:", 0), 0u);
    EXPECT_TRUE(client.ping(&err)) << err;

    ArchConfig cfg;
    const std::optional<RunResult> served =
        client.run("BT", cfg, &err);
    ASSERT_TRUE(served.has_value()) << err;
    const RunResult direct = runWorkload("BT", cfg);
    EXPECT_EQ(served->ev.cycles, direct.ev.cycles);
    EXPECT_EQ(served->ev.warpInsts, direct.ev.warpInsts);

    const std::optional<DaemonStats> s = client.stats(&err);
    ASSERT_TRUE(s.has_value()) << err;
    EXPECT_EQ(s->requestsServed, 1u);

    // The unix listener serves concurrently with TCP.
    GscalarClient unixClient(sock.path);
    EXPECT_TRUE(unixClient.ping(&err)) << err;
    server.stop();
}

TEST(ReactorServe, RequestPriorityRoundTripsAndValidates)
{
    RunRequest req;
    req.workload = "MM";
    req.priority = 2;
    const std::vector<std::uint8_t> blob = serializeRequest(req);
    std::string err;
    const std::optional<RunRequest> back =
        deserializeRequest(blob.data(), blob.size(), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->priority, 2u);

    RunRequest bad;
    bad.workload = "MM";
    bad.priority = kNumPriorities; // one past the highest band
    const std::vector<std::uint8_t> badBlob = serializeRequest(bad);
    EXPECT_FALSE(
        deserializeRequest(badBlob.data(), badBlob.size(), &err)
            .has_value());
    EXPECT_NE(err.find("priority"), std::string::npos) << err;
}

TEST(ReactorServe, ParseConnectTargetStrict)
{
    std::string err;
    auto t = parseConnectTarget("localhost:4242", &err);
    ASSERT_TRUE(t.has_value()) << err;
    EXPECT_EQ(t->host, "localhost");
    EXPECT_EQ(t->port, 4242);

    t = parseConnectTarget("[::1]:9", &err);
    ASSERT_TRUE(t.has_value()) << err;
    EXPECT_EQ(t->host, "::1"); // brackets stripped for getaddrinfo
    EXPECT_EQ(t->port, 9);

    t = parseConnectTarget("127.0.0.1:65535", &err);
    ASSERT_TRUE(t.has_value()) << err;
    EXPECT_EQ(t->port, 65535);

    // Port 0 is a listen-only convention (ephemeral bind).
    EXPECT_FALSE(parseConnectTarget("h:0", &err).has_value());
    t = parseConnectTarget("h:0", &err, /*allowPortZero=*/true);
    ASSERT_TRUE(t.has_value()) << err;
    EXPECT_EQ(t->port, 0);

    // Strict-parse (the --jobs idiom): anything else is an error with
    // the offending spec named, never a silent default.
    for (const char *bad :
         {"", "noport", ":9", "host:", "host:65536", "host:12a",
          "host:-1", "host: 9", "[]:9"}) {
        EXPECT_FALSE(parseConnectTarget(bad, &err).has_value())
            << "accepted '" << bad << "'";
        EXPECT_NE(err.find("connect target"), std::string::npos) << err;
    }
}
