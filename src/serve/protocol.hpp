/**
 * @file
 * Wire protocol between gscalard and its clients: length-prefixed
 * frames over a unix-domain stream socket. Each frame is a u32
 * little-endian payload length followed by one store/serial.hpp blob
 * (magic + version + kind header, tagged fields, FNV trailer), so
 * framing errors and payload corruption are caught independently.
 *
 * Message kinds:
 *   Ping / Pong      liveness probe, empty payload
 *   Request          run request: workload abbreviation + ArchConfig
 *   Response         status + error string + RunResult on success
 *   StatsRequest     daemon counters probe, empty payload
 *   StatsResponse    uptime, request/cache counters, per-workload
 *                    latency histograms (nested WorkloadStats blobs)
 *
 * The protocol is strictly request/response per connection; a client
 * may pipeline multiple requests sequentially on one socket.
 */

#ifndef GSCALAR_SERVE_PROTOCOL_HPP
#define GSCALAR_SERVE_PROTOCOL_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/engine.hpp" // kNumPriorities, kDefaultPriority
#include "obs/stats.hpp"
#include "store/serial.hpp"

namespace gs
{

/** Largest accepted frame payload; bigger frames drop the connection. */
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/**
 * Socket path used when none is given: $GS_SOCKET, else
 * $XDG_RUNTIME_DIR/gscalard.sock, else /tmp/gscalard-<uid>.sock.
 */
std::string defaultSocketPath();

/** A parsed "host:port" TCP connect/listen target. */
struct ConnectTarget
{
    std::string host;
    std::uint16_t port = 0;
};

/**
 * Strict-parse a "host:port" target in the --jobs idiom: the last ':'
 * splits host from port, the port must be digits-only in [1, 65535],
 * and the host must be non-empty (IPv6 literals may be bracketed,
 * "[::1]:4242"). Empty optional (with *error) on anything else.
 * @p allowPortZero admits port 0 (listen targets: ephemeral bind).
 */
std::optional<ConnectTarget>
parseConnectTarget(const std::string &spec, std::string *error = nullptr,
                   bool allowPortZero = false);

// A run request on the wire is the harness RunRequest (runner.hpp);
// only the (workload, cfg) pair is serialized — tracer and seed
// override are local-only.

/** Result status of a RunResponse. */
enum class ResponseStatus : std::uint32_t
{
    Ok = 0,
    BadRequest = 1,    ///< malformed blob, unknown workload, bad config
    Timeout = 2,       ///< simulation exceeded the per-request budget
    ShuttingDown = 3,  ///< server is draining; retry elsewhere/later
    InternalError = 4, ///< simulation failed server-side
    Overloaded = 5,    ///< connection cap reached; retry with backoff
};

/** Human-readable name of a status (for logs and CLI errors). */
std::string_view responseStatusName(ResponseStatus s);

/**
 * Whether a client should retry a request that drew this status.
 * ShuttingDown and Overloaded are transient by definition; the rest
 * describe the request (BadRequest) or the work itself.
 */
bool retryableStatus(ResponseStatus s);

struct RunResponse
{
    ResponseStatus status = ResponseStatus::InternalError;
    std::string error;  ///< empty when status == Ok
    RunResult result;   ///< valid only when status == Ok
};

/** Request-latency histogram of one workload, as served by the daemon. */
struct WorkloadLatency
{
    std::string workload;
    LatencyHistogram latency;
};

/**
 * Live daemon counters returned for a StatsRequest: process-level
 * figures (uptime, requests, connections), the embedded engine's
 * snapshot (pool geometry, memo/disk cache counters, simulation
 * throughput), and one request-latency histogram per workload served.
 */
struct DaemonStats
{
    double uptimeSeconds = 0;
    std::uint64_t requestsServed = 0; ///< Ok responses only
    std::uint32_t activeConnections = 0;
    std::uint32_t jobs = 0;
    std::uint64_t queueDepth = 0;
    std::uint64_t peakQueueDepth = 0;
    std::uint64_t cacheHits = 0;   ///< in-memory memo hits
    std::uint64_t cacheMisses = 0; ///< tasks actually scheduled
    std::uint64_t diskCacheHits = 0;
    std::uint64_t diskCacheStores = 0;
    double simWallSeconds = 0; ///< summed simulate wall clock
    std::uint64_t simCycles = 0;
    std::uint64_t warpInsts = 0;
    std::uint64_t overloads = 0;    ///< connections shed at the cap
    std::uint64_t idleCloses = 0;   ///< connections idle-timed-out
    std::uint64_t frameRejects = 0; ///< frames over the size guard

    // Reactor / coalescing tier (appended tags; old daemons leave the
    // in-memory zeros, so mixed-version stats probes keep working).
    std::uint64_t coalesceLeaders = 0;   ///< submits that started a run
    std::uint64_t coalesceFollowers = 0; ///< submits that joined one
    std::uint64_t batches = 0;           ///< reactor dispatch batches
    std::uint64_t batchPeak = 0;         ///< largest batch (requests)
    std::uint64_t queueSheds = 0;        ///< requests shed by admission
    /** Current and peak queued engine runs per priority band (0 =
     *  lowest). */
    std::array<std::uint64_t, kNumPriorities> queueDepths{};
    std::array<std::uint64_t, kNumPriorities> queuePeaks{};
    /** Reactor loop iteration latency (epoll wake to quiesce). */
    LatencyHistogram reactorLoop;

    std::vector<WorkloadLatency> workloads; ///< sorted by name
};

// ---- message serialization ----------------------------------------------

std::vector<std::uint8_t> serializeRequest(const RunRequest &req);
std::optional<RunRequest> deserializeRequest(const std::uint8_t *data,
                                             std::size_t size,
                                             std::string *error = nullptr);

std::vector<std::uint8_t> serializeResponse(const RunResponse &resp);
std::optional<RunResponse> deserializeResponse(const std::uint8_t *data,
                                               std::size_t size,
                                               std::string *error = nullptr);

std::vector<std::uint8_t> serializePing();
std::vector<std::uint8_t> serializePong();

std::vector<std::uint8_t> serializeStatsRequest();
std::vector<std::uint8_t> serializeStatsResponse(const DaemonStats &s);
std::optional<DaemonStats>
deserializeStatsResponse(const std::uint8_t *data, std::size_t size,
                         std::string *error = nullptr);

/** Kind byte of a blob whose envelope looks sane; nullopt otherwise. */
std::optional<BlobKind> peekKind(const std::uint8_t *data,
                                 std::size_t size);

// ---- framing over a connected socket ------------------------------------

/** Write one length-prefixed frame; false on any I/O error. */
bool writeFrame(int fd, const std::vector<std::uint8_t> &payload);

/**
 * Read one frame into @p payload. @p maxFrame caps the accepted
 * payload size (never above kMaxFrameBytes).
 * @return 1 on success, 0 on clean EOF before any byte of a frame,
 *         -1 on I/O error or mid-frame EOF, -2 on an oversized frame
 *         (so servers can count guard rejections separately).
 */
int readFrame(int fd, std::vector<std::uint8_t> &payload,
              std::string *error = nullptr,
              std::uint32_t maxFrame = kMaxFrameBytes);

} // namespace gs

#endif // GSCALAR_SERVE_PROTOCOL_HPP
