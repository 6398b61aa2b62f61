/**
 * @file
 * gscalard: a simulation service over unix-domain and TCP sockets. One
 * shared ExperimentEngine (worker pool + in-memory run cache + optional
 * persistent disk cache) answers run requests from any number of
 * concurrent clients, so a fleet of sweep scripts simulates each
 * (workload x config) point exactly once machine-wide.
 *
 * Concurrency model: a single reactor thread owns every fd — the unix
 * listener, the optional TCP listener, a self-wake pipe, and all
 * client connections — in one nonblocking epoll set, with per-
 * connection read/write state machines for the framed protocol. An
 * idle connection costs an epoll slot, not a blocked thread.
 *
 * On top of the reactor:
 *
 *  - In-flight coalescing (singleflight): run requests are keyed on
 *    (workload, ArchConfig::fingerprint()). The first submit creates a
 *    *flight* and becomes its leader; concurrent submits with the same
 *    key park on the flight as followers. The result is computed once,
 *    serialized once, and the identical response bytes fan out to
 *    every waiter. The serve:coalesce-leader-crash fault site kills
 *    the leader's attempt; the flight is then re-dispatched under a
 *    Suppress guard (a promotion), so followers still get answers.
 *
 *  - Request batching: all submits that became readable in one epoll
 *    iteration are admitted as a single batch, so a burst of duplicate
 *    requests coalesces before any of them reaches the engine.
 *
 *  - Admission control with priorities: a submit carries a priority
 *    band (RunRequest::priority, 0..2); flights queue per band in a
 *    bounded admission queue and the service pool dispatches the
 *    highest band first. When the queue is full, the lowest-band
 *    queued flight is shed with ResponseStatus::Overloaded to make
 *    room for a higher-band arrival (or the arrival itself is shed).
 *    A follower with a higher priority than its queued flight raises
 *    the flight's band (priority inheritance).
 *
 * Simulation runs execute on a fixed pool of service threads that
 * bridge flights onto the engine; the reactor thread never blocks on
 * simulation work.
 *
 * Shutdown — stop(), or SIGINT/SIGTERM once installSignalHandlers() is
 * on — closes the listeners, answers new submits with ShuttingDown,
 * lets every flight in the air complete and flush its responses, and
 * only then tears the connections down: a drain, not an abort.
 */

#ifndef GSCALAR_SERVE_SERVER_HPP
#define GSCALAR_SERVE_SERVER_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
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
        /** Per-request budget from admission to response (seconds).
         *  The simulation itself is not cancelled on timeout; the
         *  flight is simply answered with ResponseStatus::Timeout. */
        double requestTimeoutSec = 600.0;
        /** Close a connection after this long without traffic and no
         *  response in flight. <= 0 disables the sweep. */
        double idleTimeoutSec = 300.0;
        /** Connection cap: further accepts are answered with
         *  ResponseStatus::Overloaded and closed. 0 = unlimited. */
        std::uint32_t maxConnections = 64;
        /** Per-frame payload limit (never above kMaxFrameBytes). */
        std::uint32_t maxFrameBytes = kMaxFrameBytes;
        /** Admission bound: queued (undispatched) flights across all
         *  priority bands. 0 = unbounded. */
        std::uint32_t maxQueuedFlights = 256;
        /** Service threads bridging flights onto the engine; 0 sizes
         *  the pool to the engine's worker count + 2, so the engine
         *  stays saturated while one thread waits per flight. */
        unsigned serviceThreads = 0;
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
     * Bind, listen and spawn the reactor + service threads. A stale
     * socket file left by a dead server is detected (connect() refused)
     * and replaced; a live one makes start() fail.
     */
    bool start(std::string *error = nullptr);

    /**
     * Block until the server has drained: the reactor has fanned out
     * every in-flight response and exited, and the service threads are
     * joined.
     */
    void wait();

    /**
     * Initiate shutdown without blocking. Async-signal-safe: only
     * atomics and a write() to the self-wake pipe.
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

    /** Flights created (each computes at most one engine submit). */
    std::uint64_t coalesceLeaders() const
    {
        return coalesceLeaders_.load(std::memory_order_relaxed);
    }

    /** Submits that joined an existing flight instead of computing. */
    std::uint64_t coalesceFollowers() const
    {
        return coalesceFollowers_.load(std::memory_order_relaxed);
    }

    /** Flights re-dispatched after a leader crash. */
    std::uint64_t coalescePromotions() const
    {
        return coalescePromotions_.load(std::memory_order_relaxed);
    }

    /**
     * Live counters for the `stats` protocol message: uptime, requests
     * served, connection count, the engine snapshot, the coalescing /
     * batching / admission tier, and one request latency histogram per
     * workload (sorted by name).
     */
    DaemonStats stats() const;

  private:
    /** One response frame (4-byte length prefix + payload), shared by
     *  every waiter of a flight so fan-out is a pointer copy. */
    struct OutBuf
    {
        std::shared_ptr<const std::vector<std::uint8_t>> frame;
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
        std::uint32_t inFlight = 0; ///< responses owed to this peer
        std::chrono::steady_clock::time_point lastActivity;
    };

    /** One parked submit: who to answer and when it arrived. */
    struct Waiter
    {
        std::uint64_t connId = 0;
        std::chrono::steady_clock::time_point start;
    };

    /** One coalesced computation, keyed on (workload, fingerprint). */
    struct Flight
    {
        RunRequest req;
        std::uint32_t priority = kDefaultPriority;
        bool dispatched = false; ///< picked up by a service thread
        std::chrono::steady_clock::time_point created;
        std::vector<Waiter> waiters; ///< leader first
    };

    /** A flight handed to the service pool. */
    struct PendingJob
    {
        std::string key;
        RunRequest req;
        bool promoted = false; ///< rerun after a leader crash
        std::chrono::steady_clock::time_point created;
    };

    /** A finished (or crashed) flight coming back to the reactor. */
    struct Completion
    {
        std::string key;
        bool leaderCrash = false; ///< re-dispatch instead of fan-out
        ResponseStatus status = ResponseStatus::InternalError;
        std::shared_ptr<const std::vector<std::uint8_t>> frame;
    };

    /** A submit parsed from one reactor iteration (batched admission). */
    struct BatchItem
    {
        std::uint64_t connId = 0;
        RunRequest req;
    };

    // Reactor side (all Conn/Flight state is reactor-thread-only).
    void reactorLoop();
    void acceptReady(int listenFd, bool tcp);
    void readConn(Conn &conn, std::vector<BatchItem> &batch);
    void parseFrames(Conn &conn, std::vector<BatchItem> &batch);
    void handleFrame(Conn &conn, const std::uint8_t *data,
                     std::size_t size, std::vector<BatchItem> &batch);
    void dispatchBatch(std::vector<BatchItem> &batch);
    void shedFlight(const std::string &key, const std::string &why);
    void drainCompletions();
    void fanOut(const std::string &key, const Completion &done);
    void idleSweep(std::chrono::steady_clock::time_point now);
    void enqueueFrame(Conn &conn,
                      std::shared_ptr<const std::vector<std::uint8_t>> f);
    void respond(Conn &conn, const RunResponse &resp);
    void flushConn(Conn &conn);
    void armWrite(Conn &conn, bool on);
    void markDead(Conn &conn);
    void reapDead();
    void closeListeners();
    Conn *findConn(std::uint64_t id);

    // Service-pool side.
    void serviceLoop();
    void runJob(PendingJob job);
    void postCompletion(Completion done);
    void wakeReactor() noexcept;

    ExperimentEngine &engine_;
    Options opts_;
    std::string path_;

    int epollFd_ = -1;
    int listenFd_ = -1;    ///< unix listener
    int tcpListenFd_ = -1; ///< TCP listener (optional)
    int wakeFds_[2] = {-1, -1}; ///< self-pipe: [0] polled, [1] written
    std::atomic<std::uint16_t> tcpPort_{0};

    std::thread reactorThread_;
    std::vector<std::thread> serviceThreads_;

    /** Reactor-owned: id -> connection. Touched only on the reactor. */
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
    std::uint64_t nextConnId_ = 16; ///< low ids name the static fds

    /** Reactor-owned: flight key -> flight. */
    std::unordered_map<std::string, Flight> flights_;

    /** Admission queue, one band per priority; band 2 pops first. */
    mutable std::mutex pendingMutex_;
    std::condition_variable pendingCv_;
    std::array<std::deque<PendingJob>, kNumPriorities> pending_;
    std::array<std::uint64_t, kNumPriorities> queuePeaks_{};
    bool stopWorkers_ = false;

    /** Completed flights travelling service pool -> reactor. */
    std::mutex completionMutex_;
    std::deque<Completion> completions_;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> running_{false};
    std::atomic<std::uint64_t> served_{0};
    std::atomic<std::uint64_t> activeConns_{0};
    std::atomic<std::uint64_t> overloads_{0};    ///< connections shed
    std::atomic<std::uint64_t> idleCloses_{0};   ///< idle timeouts
    std::atomic<std::uint64_t> frameRejects_{0}; ///< oversized frames
    std::atomic<std::uint64_t> coalesceLeaders_{0};
    std::atomic<std::uint64_t> coalesceFollowers_{0};
    std::atomic<std::uint64_t> coalescePromotions_{0};
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
