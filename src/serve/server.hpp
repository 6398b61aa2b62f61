/**
 * @file
 * gscalard: a simulation service over unix-domain and TCP sockets. One
 * shared ExperimentEngine (worker pool + in-memory run cache + optional
 * persistent disk cache) answers run requests from any number of
 * concurrent clients, so a fleet of sweep scripts simulates each
 * (workload x config) point exactly once machine-wide.
 *
 * Concurrency model: a single reactor thread owns every fd — the unix
 * listener, the optional TCP listener, a wake eventfd, and all
 * client connections — in one nonblocking epoll set, with per-
 * connection read/write state machines for the framed protocol. An
 * idle connection costs an epoll slot, not a blocked thread.
 *
 * One dedup layer, one thread hop: the reactor hands each admitted run
 * request straight to ExperimentEngine::submitAsync(), keyed on
 * (workload, ArchConfig::fingerprint()). The engine joins duplicates
 * of a queued or computing run and answers memo hits; the worker that
 * finishes a run posts each response, serialized (deterministically)
 * from the one shared RunResult, back through a completion queue and
 * the wake fd. The reactor never blocks on a future, never builds a
 * workload (names are checked parse-only) and never simulates.
 *
 * Requests readable in one epoll iteration are admitted as one batch.
 * A request's priority band (RunRequest::priority, 0..2) is the band
 * its run queues in, highest first; with Options::maxQueuedRuns
 * runs queued, a new run evicts the newest queued run of a lower band
 * (its waiters get ResponseStatus::Overloaded) or is shed itself, and
 * a higher-band request joining a queued run raises its band. A
 * request still unanswered at Options::requestTimeoutSec gets
 * ResponseStatus::Timeout; its run keeps computing and the late
 * completion is dropped.
 *
 * Shutdown — stop(), or SIGINT/SIGTERM once installSignalHandlers() is
 * on — closes the listeners, answers new submits with ShuttingDown,
 * waits until no request is outstanding and the responses are flushed,
 * and only then tears the connections down: a drain, not an abort.
 */

#ifndef GSCALAR_SERVE_SERVER_HPP
#define GSCALAR_SERVE_SERVER_HPP

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness/engine.hpp"
#include "protocol.hpp"

namespace gs
{

class GscalarServer
{
  public:
    struct Options
    {
        /** Unix socket path; empty selects defaultSocketPath(). */
        std::string socketPath;
        /** TCP listen target ("host:port"); empty disables TCP. Port 0
         *  binds an ephemeral port, readable via tcpPort(). */
        std::string tcpBind;
        /** Per-request budget from admission to response (seconds);
         *  0 disables it. The simulation itself is not cancelled on
         *  timeout; the request is answered with
         *  ResponseStatus::Timeout. */
        double requestTimeoutSec = 600.0;
        /** Close a connection after this long without traffic and no
         *  response in flight. <= 0 disables the sweep. */
        double idleTimeoutSec = 300.0;
        /** Connection cap: further accepts are answered with
         *  ResponseStatus::Overloaded and closed. 0 = unlimited. */
        std::uint32_t maxConnections = 64;
        /** Per-frame payload limit (never above kMaxFrameBytes). */
        std::uint32_t maxFrameBytes = kMaxFrameBytes;
        /** Admission bound: runs queued in the engine (not yet
         *  picked up by a worker) across all priority bands.
         *  0 = unbounded. */
        std::uint32_t maxQueuedRuns = 256;
    };

    explicit GscalarServer(ExperimentEngine &engine)
        : GscalarServer(engine, Options{})
    {
    }
    GscalarServer(ExperimentEngine &engine, Options opts);

    /** Stops and drains if still running. */
    ~GscalarServer();

    GscalarServer(const GscalarServer &) = delete;
    GscalarServer &operator=(const GscalarServer &) = delete;

    /**
     * Bind, listen and spawn the reactor thread. A stale
     * socket file left by a dead server is detected (connect() refused)
     * and replaced; a live one makes start() fail.
     */
    bool start(std::string *error = nullptr);

    /**
     * Block until the server has drained: the reactor has answered
     * every outstanding request and exited.
     */
    void wait();

    /**
     * Initiate shutdown without blocking. Async-signal-safe: only
     * atomics and a write() to the wake eventfd.
     */
    void requestStop() noexcept;

    /** requestStop() + wait(). */
    void stop();

    /**
     * Route SIGINT and SIGTERM to requestStop() for this instance.
     * Previous handlers are restored when the server is destroyed.
     */
    bool installSignalHandlers(std::string *error = nullptr);

    bool running() const { return running_.load(); }
    const std::string &socketPath() const { return path_; }

    /** Bound TCP port after start(), or 0 when TCP is disabled. */
    std::uint16_t tcpPort() const { return tcpPort_.load(); }

    /** Requests answered with status Ok since start(). */
    std::uint64_t requestsServed() const { return served_.load(); }

    /** Currently open client connections. */
    std::uint64_t activeConnections() const
    {
        return activeConns_.load(std::memory_order_relaxed);
    }

    /** Submits that started an engine run. */
    std::uint64_t coalesceLeaders() const
    {
        return coalesceLeaders_.load(std::memory_order_relaxed);
    }

    /** Submits that joined an engine run in flight. */
    std::uint64_t coalesceFollowers() const
    {
        return coalesceFollowers_.load(std::memory_order_relaxed);
    }

    /**
     * Live counters for the `stats` protocol message: uptime, requests
     * served, connection count, the engine snapshot, the coalescing /
     * batching / admission tier, and one request latency histogram per
     * workload (sorted by name).
     */
    DaemonStats stats() const;

  private:
    using Frame = std::shared_ptr<const std::vector<std::uint8_t>>;

    /** One response frame (4-byte length prefix + payload). */
    struct OutBuf
    {
        Frame frame;
        std::size_t off = 0;
    };

    /** Per-connection state machine owned by the reactor thread. */
    struct Conn
    {
        int fd = -1;
        std::uint64_t id = 0;
        std::vector<std::uint8_t> rbuf; ///< unparsed inbound bytes
        std::size_t rpos = 0;           ///< parse offset into rbuf
        std::deque<OutBuf> wq;          ///< unflushed outbound frames
        bool wantWrite = false;         ///< EPOLLOUT currently armed
        bool closing = false; ///< discard reads, close once wq drains
        bool sawEof = false;
        bool dead = false; ///< reaped at the end of the iteration
        std::uint32_t owed = 0; ///< responses owed to this peer
        std::chrono::steady_clock::time_point lastActivity;
    };

    /** A request handed to the engine and not yet answered. */
    struct Outstanding
    {
        std::uint64_t connId = 0;
        std::string workload;
        std::chrono::steady_clock::time_point start;
    };

    /** A submit parsed from one reactor iteration (batched admission). */
    struct BatchItem
    {
        std::uint64_t connId = 0;
        RunRequest req;
    };

    struct Completion;
    struct Mailbox;

    // All of it runs on the reactor thread.
    void reactorLoop();
    void acceptReady(int listenFd, bool tcp);
    void readConn(Conn &conn, std::vector<BatchItem> &batch);
    void parseFrames(Conn &conn, std::vector<BatchItem> &batch);
    void handleFrame(Conn &conn, const std::uint8_t *data,
                     std::size_t size, std::vector<BatchItem> &batch);
    void dispatchBatch(std::vector<BatchItem> &batch);
    void drainCompletions();
    void answer(std::uint64_t reqId, ResponseStatus status,
                const Frame &frame,
                std::chrono::steady_clock::time_point now);
    void sweepDeadlines(std::chrono::steady_clock::time_point now);
    void idleSweep(std::chrono::steady_clock::time_point now);
    void enqueueFrame(Conn &conn, Frame f);
    void flushConn(Conn &conn);
    void armWrite(Conn &conn, bool on);
    void reapDead();
    void closeListeners();
    Conn *findConn(std::uint64_t id);

    ExperimentEngine &engine_;
    Options opts_;
    std::string path_;

    int epollFd_ = -1;
    int listenFd_ = -1;    ///< unix listener
    int tcpListenFd_ = -1; ///< TCP listener (optional)
    std::atomic<std::uint16_t> tcpPort_{0};

    std::thread reactorThread_;

    /** Completions travelling engine workers -> reactor, with the wake
     *  fd. Engine callbacks share it, so a run that finishes after the
     *  server is gone still has somewhere to post. */
    std::shared_ptr<Mailbox> mailbox_;

    /** Reactor-owned: id -> connection. Touched only on the reactor. */
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
    std::uint64_t nextConnId_ = 16; ///< low ids name the static fds

    /** Reactor-owned: request id -> its peer, until answered. */
    std::unordered_map<std::uint64_t, Outstanding> outstanding_;
    /** Reactor-owned: (deadline, request id) in admission order; one
     *  budget for all, so the deadlines are sorted. */
    std::deque<std::pair<std::chrono::steady_clock::time_point,
                         std::uint64_t>>
        deadlines_;
    std::uint64_t nextReqId_ = 1;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> running_{false};
    std::atomic<std::uint64_t> served_{0};
    std::atomic<std::uint64_t> activeConns_{0};
    std::atomic<std::uint64_t> overloads_{0};    ///< connections shed
    std::atomic<std::uint64_t> idleCloses_{0};   ///< idle timeouts
    std::atomic<std::uint64_t> frameRejects_{0}; ///< oversized frames
    std::atomic<std::uint64_t> coalesceLeaders_{0};
    std::atomic<std::uint64_t> coalesceFollowers_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> batchPeak_{0};
    std::atomic<std::uint64_t> queueSheds_{0};

    std::chrono::steady_clock::time_point startTime_{};
    mutable std::mutex latencyMutex_;
    /** Request latency per workload (Ok responses only). */
    std::map<std::string, LatencyHistogram> latency_;
    /** Reactor iteration latency (wake to quiesce). */
    LatencyHistogram reactorLoopHist_;

    bool handlersInstalled_ = false;
    struct sigaction oldInt_ = {}, oldTerm_ = {};
};

/**
 * Parse the daemon flags that gscalard and `gscalar serve` share, from
 * argv[i] on, into @p opts. The process-wide ones (--jobs, --codec,
 * --cache, --fault, --sim-threads) are skipped: initHarness() applies
 * them. Stops at the first argument that is not a daemon flag and
 * leaves @p i on it (i == argc when all were consumed), so each binary
 * treats that its own way. Returns the first missing or malformed
 * value as an error, else an empty string.
 */
std::string parseServeFlags(int argc, char **argv, int &i,
                            GscalarServer::Options &opts);

} // namespace gs

#endif // GSCALAR_SERVE_SERVER_HPP
