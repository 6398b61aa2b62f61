#include "protocol.hpp"

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "common/parse.hpp"
#include "fault/fault.hpp"

namespace gs
{

namespace
{

// Request field tags.
constexpr std::uint16_t kReqWorkload = 1;
constexpr std::uint16_t kReqConfig = 2;
constexpr std::uint16_t kReqPriority = 3;

// Response field tags.
constexpr std::uint16_t kRespStatus = 1;
constexpr std::uint16_t kRespError = 2;
constexpr std::uint16_t kRespResult = 3;

// StatsResponse field tags.
constexpr std::uint16_t kStatUptime = 1;
constexpr std::uint16_t kStatServed = 2;
constexpr std::uint16_t kStatConns = 3;
constexpr std::uint16_t kStatJobs = 4;
constexpr std::uint16_t kStatQueueDepth = 5;
constexpr std::uint16_t kStatPeakQueueDepth = 6;
constexpr std::uint16_t kStatCacheHits = 7;
constexpr std::uint16_t kStatCacheMisses = 8;
constexpr std::uint16_t kStatDiskHits = 9;
constexpr std::uint16_t kStatDiskStores = 10;
constexpr std::uint16_t kStatSimWall = 11;
constexpr std::uint16_t kStatSimCycles = 12;
constexpr std::uint16_t kStatWarpInsts = 13;
constexpr std::uint16_t kStatWorkload = 14; ///< repeated nested blob
constexpr std::uint16_t kStatOverloads = 15;
constexpr std::uint16_t kStatIdleCloses = 16;
constexpr std::uint16_t kStatFrameRejects = 17;
// Reactor / coalescing tier (appended; old readers skip them, old
// writers simply never emit them — either way the defaults hold).
constexpr std::uint16_t kStatCoalesceLeaders = 18;
constexpr std::uint16_t kStatCoalesceFollowers = 19;
// 20 (coalesce promotions) is retired: readers skip it, and no later
// field may reuse the number.
constexpr std::uint16_t kStatBatches = 21;
constexpr std::uint16_t kStatBatchPeak = 22;
constexpr std::uint16_t kStatQueueSheds = 23;
constexpr std::uint16_t kStatQueueDepthBase = 24; ///< 24..24+bands-1
constexpr std::uint16_t kStatQueuePeakBase = 28;  ///< 28..28+bands-1
constexpr std::uint16_t kStatReactorLoop = 32;    ///< nested blob

// WorkloadStats (nested) field tags.
constexpr std::uint16_t kWlName = 1;
constexpr std::uint16_t kWlCount = 2;
constexpr std::uint16_t kWlTotalSeconds = 3;
constexpr std::uint16_t kWlMaxSeconds = 4;
constexpr std::uint16_t kWlBucketBase = 16; ///< tags 16..16+kBuckets-1

std::vector<std::uint8_t>
serializeWorkloadLatency(const WorkloadLatency &wl)
{
    ByteWriter w(BlobKind::WorkloadStats);
    w.field(kWlName, wl.workload);
    w.field(kWlCount, wl.latency.count());
    w.field(kWlTotalSeconds, wl.latency.totalSeconds());
    w.field(kWlMaxSeconds, wl.latency.maxSeconds());
    const auto &buckets = wl.latency.buckets();
    for (std::size_t i = 0; i < buckets.size(); ++i)
        if (buckets[i] != 0)
            w.field(std::uint16_t(kWlBucketBase + i), buckets[i]);
    return w.finish();
}

std::optional<WorkloadLatency>
deserializeWorkloadLatency(const std::uint8_t *data, std::size_t size,
                           std::string *error)
{
    ByteReader r(data, size, BlobKind::WorkloadStats);
    WorkloadLatency wl;
    std::uint64_t count = 0;
    double total = 0, max = 0;
    std::array<std::uint64_t, LatencyHistogram::kBuckets> buckets{};
    r.get(kWlName, wl.workload);
    r.get(kWlCount, count);
    r.get(kWlTotalSeconds, total);
    r.get(kWlMaxSeconds, max);
    for (std::size_t i = 0; i < buckets.size(); ++i)
        r.get(std::uint16_t(kWlBucketBase + i), buckets[i]);
    if (!r.ok()) {
        if (error)
            *error = r.error();
        return std::nullopt;
    }
    if (wl.workload.empty()) {
        if (error)
            *error = "workload stats blob carries no workload name";
        return std::nullopt;
    }
    wl.latency.restore(buckets, count, total, max);
    return wl;
}

} // namespace

std::string
defaultSocketPath()
{
    if (const char *env = std::getenv("GS_SOCKET"); env && *env)
        return env;
    if (const char *run = std::getenv("XDG_RUNTIME_DIR"); run && *run)
        return std::string(run) + "/gscalard.sock";
    return "/tmp/gscalard-" + std::to_string(::getuid()) + ".sock";
}

std::optional<ConnectTarget>
parseConnectTarget(const std::string &spec, std::string *error,
                   bool allowPortZero)
{
    auto fail = [&](const std::string &why) -> std::optional<ConnectTarget> {
        if (error)
            *error = "connect target '" + spec + "': " + why;
        return std::nullopt;
    };

    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos)
        return fail("want host:port");
    std::string host = spec.substr(0, colon);
    const std::string port = spec.substr(colon + 1);
    if (host.empty())
        return fail("empty host");
    // Accept a bracketed IPv6 literal and strip the brackets for
    // getaddrinfo, which wants the bare address.
    if (host.size() >= 2 && host.front() == '[' && host.back() == ']')
        host = host.substr(1, host.size() - 2);
    if (host.empty())
        return fail("empty host");
    const std::optional<std::uint64_t> v =
        parseDecimal(port, allowPortZero ? 0 : 1, 65535);
    if (!v)
        return fail("port wants an integer in [1, 65535]");

    ConnectTarget t;
    t.host = std::move(host);
    t.port = std::uint16_t(*v);
    return t;
}

std::string_view
responseStatusName(ResponseStatus s)
{
    switch (s) {
      case ResponseStatus::Ok: return "ok";
      case ResponseStatus::BadRequest: return "bad-request";
      case ResponseStatus::Timeout: return "timeout";
      case ResponseStatus::ShuttingDown: return "shutting-down";
      case ResponseStatus::InternalError: return "internal-error";
      case ResponseStatus::Overloaded: return "overloaded";
    }
    return "unknown";
}

bool
retryableStatus(ResponseStatus s)
{
    return s == ResponseStatus::ShuttingDown ||
           s == ResponseStatus::Overloaded;
}

std::vector<std::uint8_t>
serializeRequest(const RunRequest &req)
{
    ByteWriter w(BlobKind::Request);
    w.field(kReqWorkload, req.workload);
    w.fieldBlob(kReqConfig, serializeConfig(req.cfg));
    w.field(kReqPriority, req.priority);
    return w.finish();
}

std::optional<RunRequest>
deserializeRequest(const std::uint8_t *data, std::size_t size,
                   std::string *error)
{
    ByteReader r(data, size, BlobKind::Request);
    RunRequest req;
    r.get(kReqWorkload, req.workload);

    const std::uint8_t *p = nullptr;
    std::size_t n = 0;
    if (r.getBlob(kReqConfig, p, n)) {
        std::optional<ArchConfig> cfg = deserializeConfig(p, n, error);
        if (!cfg)
            return std::nullopt;
        req.cfg = *cfg;
    } else {
        r.fail("request carries no configuration");
    }
    r.get(kReqPriority, req.priority); // absent tag keeps the default
    if (!r.ok()) {
        if (error)
            *error = r.error();
        return std::nullopt;
    }
    if (req.workload.empty()) {
        if (error)
            *error = "request carries no workload name";
        return std::nullopt;
    }
    if (req.priority >= kNumPriorities) {
        if (error)
            *error = "request priority " + std::to_string(req.priority) +
                     " out of range (want 0.." +
                     std::to_string(kNumPriorities - 1) + ")";
        return std::nullopt;
    }
    return req;
}

std::vector<std::uint8_t>
serializeResponse(const RunResponse &resp)
{
    ByteWriter w(BlobKind::Response);
    w.field(kRespStatus, static_cast<std::uint32_t>(resp.status));
    w.field(kRespError, resp.error);
    if (resp.status == ResponseStatus::Ok)
        w.fieldBlob(kRespResult, serializeResult(resp.result));
    return w.finish();
}

std::optional<RunResponse>
deserializeResponse(const std::uint8_t *data, std::size_t size,
                    std::string *error)
{
    ByteReader r(data, size, BlobKind::Response);
    RunResponse resp;
    std::uint32_t status = 0;
    r.get(kRespStatus, status);
    r.get(kRespError, resp.error);
    if (status > static_cast<std::uint32_t>(ResponseStatus::Overloaded)) {
        if (error)
            *error = "response status " + std::to_string(status) +
                     " out of range";
        return std::nullopt;
    }
    resp.status = static_cast<ResponseStatus>(status);

    if (resp.status == ResponseStatus::Ok) {
        const std::uint8_t *p = nullptr;
        std::size_t n = 0;
        if (!r.getBlob(kRespResult, p, n)) {
            if (error)
                *error = "ok response carries no result";
            return std::nullopt;
        }
        std::optional<RunResult> res = deserializeResult(p, n, error);
        if (!res)
            return std::nullopt;
        resp.result = *res;
    }
    if (!r.ok()) {
        if (error)
            *error = r.error();
        return std::nullopt;
    }
    return resp;
}

std::vector<std::uint8_t>
serializePing()
{
    return ByteWriter(BlobKind::Ping).finish();
}

std::vector<std::uint8_t>
serializePong()
{
    return ByteWriter(BlobKind::Pong).finish();
}

std::vector<std::uint8_t>
serializeStatsRequest()
{
    return ByteWriter(BlobKind::StatsRequest).finish();
}

std::vector<std::uint8_t>
serializeStatsResponse(const DaemonStats &s)
{
    ByteWriter w(BlobKind::StatsResponse);
    w.field(kStatUptime, s.uptimeSeconds);
    w.field(kStatServed, s.requestsServed);
    w.field(kStatConns, s.activeConnections);
    w.field(kStatJobs, s.jobs);
    w.field(kStatQueueDepth, s.queueDepth);
    w.field(kStatPeakQueueDepth, s.peakQueueDepth);
    w.field(kStatCacheHits, s.cacheHits);
    w.field(kStatCacheMisses, s.cacheMisses);
    w.field(kStatDiskHits, s.diskCacheHits);
    w.field(kStatDiskStores, s.diskCacheStores);
    w.field(kStatSimWall, s.simWallSeconds);
    w.field(kStatSimCycles, s.simCycles);
    w.field(kStatWarpInsts, s.warpInsts);
    w.field(kStatOverloads, s.overloads);
    w.field(kStatIdleCloses, s.idleCloses);
    w.field(kStatFrameRejects, s.frameRejects);
    w.field(kStatCoalesceLeaders, s.coalesceLeaders);
    w.field(kStatCoalesceFollowers, s.coalesceFollowers);
    w.field(kStatBatches, s.batches);
    w.field(kStatBatchPeak, s.batchPeak);
    w.field(kStatQueueSheds, s.queueSheds);
    for (std::size_t i = 0; i < kNumPriorities; ++i) {
        w.field(std::uint16_t(kStatQueueDepthBase + i), s.queueDepths[i]);
        w.field(std::uint16_t(kStatQueuePeakBase + i), s.queuePeaks[i]);
    }
    if (s.reactorLoop.count() > 0) {
        WorkloadLatency loop;
        loop.workload = "reactor-loop";
        loop.latency = s.reactorLoop;
        w.fieldBlob(kStatReactorLoop, serializeWorkloadLatency(loop));
    }
    for (const WorkloadLatency &wl : s.workloads)
        w.fieldBlob(kStatWorkload, serializeWorkloadLatency(wl));
    return w.finish();
}

std::optional<DaemonStats>
deserializeStatsResponse(const std::uint8_t *data, std::size_t size,
                         std::string *error)
{
    ByteReader r(data, size, BlobKind::StatsResponse);
    DaemonStats s;
    r.get(kStatUptime, s.uptimeSeconds);
    r.get(kStatServed, s.requestsServed);
    r.get(kStatConns, s.activeConnections);
    r.get(kStatJobs, s.jobs);
    r.get(kStatQueueDepth, s.queueDepth);
    r.get(kStatPeakQueueDepth, s.peakQueueDepth);
    r.get(kStatCacheHits, s.cacheHits);
    r.get(kStatCacheMisses, s.cacheMisses);
    r.get(kStatDiskHits, s.diskCacheHits);
    r.get(kStatDiskStores, s.diskCacheStores);
    r.get(kStatSimWall, s.simWallSeconds);
    r.get(kStatSimCycles, s.simCycles);
    r.get(kStatWarpInsts, s.warpInsts);
    r.get(kStatOverloads, s.overloads);
    r.get(kStatIdleCloses, s.idleCloses);
    r.get(kStatFrameRejects, s.frameRejects);
    r.get(kStatCoalesceLeaders, s.coalesceLeaders);
    r.get(kStatCoalesceFollowers, s.coalesceFollowers);
    r.get(kStatBatches, s.batches);
    r.get(kStatBatchPeak, s.batchPeak);
    r.get(kStatQueueSheds, s.queueSheds);
    for (std::size_t i = 0; i < kNumPriorities; ++i) {
        r.get(std::uint16_t(kStatQueueDepthBase + i), s.queueDepths[i]);
        r.get(std::uint16_t(kStatQueuePeakBase + i), s.queuePeaks[i]);
    }
    {
        const std::uint8_t *p = nullptr;
        std::size_t n = 0;
        if (r.getBlob(kStatReactorLoop, p, n)) {
            std::optional<WorkloadLatency> loop =
                deserializeWorkloadLatency(p, n, error);
            if (!loop)
                return std::nullopt;
            s.reactorLoop = loop->latency;
        }
    }
    const std::vector<ByteReader::BlobView> blobs =
        r.getBlobs(kStatWorkload);
    if (!r.ok()) {
        if (error)
            *error = r.error();
        return std::nullopt;
    }
    for (const ByteReader::BlobView &b : blobs) {
        std::optional<WorkloadLatency> wl =
            deserializeWorkloadLatency(b.ptr, b.len, error);
        if (!wl)
            return std::nullopt;
        s.workloads.push_back(std::move(*wl));
    }
    return s;
}

std::optional<BlobKind>
peekKind(const std::uint8_t *data, std::size_t size)
{
    if (data == nullptr || size < 8)
        return std::nullopt;
    std::uint32_t magic;
    std::memcpy(&magic, data, 4); // little-endian host assumed repo-wide
    if (magic != kSerialMagic)
        return std::nullopt;
    return static_cast<BlobKind>(data[6]);
}

namespace
{
/** Injected-EINTR storms are bounded so rate 1.0 cannot livelock. */
constexpr int kMaxInjectedEintr = 16;
} // namespace

bool
writeFrame(int fd, const std::vector<std::uint8_t> &payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    if (injectFault("serve", FaultKind::ConnReset)) {
        errno = ECONNRESET;
        return false;
    }
    const std::uint32_t len = std::uint32_t(payload.size());
    std::uint8_t header[4] = {
        std::uint8_t(len), std::uint8_t(len >> 8),
        std::uint8_t(len >> 16), std::uint8_t(len >> 24)};

    int eintrBudget = kMaxInjectedEintr;
    auto writeAll = [fd, &eintrBudget](const std::uint8_t *p,
                                       std::size_t n) {
        while (n > 0) {
            if (eintrBudget > 0 &&
                injectFault("serve", FaultKind::Eintr)) {
                // Simulated spurious wakeup: retry like a real EINTR.
                --eintrBudget;
                continue;
            }
            // MSG_NOSIGNAL: a vanished peer must error out, not raise
            // SIGPIPE and kill the daemon.
            const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
            if (w < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            p += w;
            n -= std::size_t(w);
        }
        return true;
    };
    return writeAll(header, sizeof(header)) &&
           writeAll(payload.data(), payload.size());
}

int
readFrame(int fd, std::vector<std::uint8_t> &payload, std::string *error,
          std::uint32_t maxFrame)
{
    if (maxFrame > kMaxFrameBytes)
        maxFrame = kMaxFrameBytes;
    if (injectFault("serve", FaultKind::ConnReset)) {
        if (error)
            *error = "connection reset by peer (injected)";
        return -1;
    }
    if (injectFault("serve", FaultKind::Stall)) {
        // A peer that stops sending: the reader must survive the gap
        // (or its read timeout must fire), never wedge forever.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }

    int eintrBudget = kMaxInjectedEintr;
    auto readAll = [fd, &eintrBudget](std::uint8_t *p, std::size_t n,
                                      bool *sawAnyByte) {
        std::size_t got = 0;
        while (got < n) {
            if (eintrBudget > 0 &&
                injectFault("serve", FaultKind::Eintr)) {
                --eintrBudget;
                continue;
            }
            const ssize_t r = ::recv(fd, p + got, n - got, 0);
            if (r < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            if (r == 0)
                return false; // EOF
            got += std::size_t(r);
            if (sawAnyByte)
                *sawAnyByte = true;
        }
        return true;
    };

    std::uint8_t header[4];
    bool sawByte = false;
    if (!readAll(header, sizeof(header), &sawByte)) {
        if (!sawByte)
            return 0; // clean EOF between frames
        if (error)
            *error = "connection dropped inside a frame header";
        return -1;
    }
    const std::uint32_t len = std::uint32_t(header[0]) |
                              (std::uint32_t(header[1]) << 8) |
                              (std::uint32_t(header[2]) << 16) |
                              (std::uint32_t(header[3]) << 24);
    if (len > maxFrame) {
        if (error)
            *error = "frame of " + std::to_string(len) +
                     " bytes exceeds the " + std::to_string(maxFrame) +
                     " byte limit";
        return -2;
    }
    if (len > 0 && injectFault("serve", FaultKind::ShortRead)) {
        // Model the peer dying mid-frame; the caller must treat the
        // connection as unusable from here on.
        if (error)
            *error = "connection dropped inside a frame payload "
                     "(injected)";
        return -1;
    }
    payload.resize(len);
    if (len > 0 && !readAll(payload.data(), len, nullptr)) {
        if (error)
            *error = "connection dropped inside a frame payload";
        return -1;
    }
    return 1;
}

} // namespace gs
