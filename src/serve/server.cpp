#include "server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "workloads/workload.hpp"

namespace gs
{

namespace
{

/** The instance SIGINT/SIGTERM route to (one daemon per process). */
std::atomic<GscalarServer *> g_signal_server{nullptr};

extern "C" void
gscalardSignalHandler(int)
{
    if (GscalarServer *s = g_signal_server.load())
        s->requestStop();
}

// epoll_event.data.u64 sentinels for the reactor's static fds;
// connection ids start at 16 (GscalarServer::nextConnId_).
constexpr std::uint64_t kIdWake = 1;
constexpr std::uint64_t kIdUnixListen = 2;
constexpr std::uint64_t kIdTcpListen = 3;

/** Injected spurious epoll wakeups are bounded so rate 1.0 cannot
 *  livelock the reactor (the serve:eintr bound, same idiom). */
constexpr int kMaxInjectedSpurious = 16;

/** How long a draining stop waits for stuck response flushes. */
constexpr double kDrainFlushDeadlineSec = 5.0;

/** Grace before reaping a closing connection whose peer never EOFs. */
constexpr double kClosingGraceSec = 30.0;

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool
bindUnixSocket(int fd, const std::string &path, std::string *error)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "socket path too long: " + path;
        return false;
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) == 0)
        return true;
    if (errno != EADDRINUSE) {
        if (error)
            *error = "bind(" + path + "): " + std::strerror(errno);
        return false;
    }

    // A socket file exists. If nobody answers it is a stale leftover of
    // a dead server: remove and retry. If a server answers, refuse.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
        const bool alive = ::connect(probe,
                                     reinterpret_cast<sockaddr *>(&addr),
                                     sizeof(addr)) == 0;
        ::close(probe);
        if (alive) {
            if (error)
                *error = "a gscalard is already listening on " + path;
            return false;
        }
    }
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) ==
        0)
        return true;
    if (error)
        *error = "bind(" + path + "): " + std::strerror(errno);
    return false;
}

/** Bind + listen a TCP socket for @p spec ("host:port", port 0 ok). */
int
bindTcpSocket(const std::string &spec, std::uint16_t *boundPort,
              std::string *error)
{
    std::string err;
    const std::optional<ConnectTarget> target =
        parseConnectTarget(spec, &err, /*allowPortZero=*/true);
    if (!target) {
        if (error)
            *error = err;
        return -1;
    }

    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo *res = nullptr;
    const std::string portStr = std::to_string(target->port);
    const int rc =
        ::getaddrinfo(target->host.c_str(), portStr.c_str(), &hints, &res);
    if (rc != 0) {
        if (error)
            *error = "resolve " + spec + ": " + ::gai_strerror(rc);
        return -1;
    }

    int fd = -1;
    std::string lastErr = "no addresses";
    for (addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            lastErr = std::string("socket: ") + std::strerror(errno);
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, 128) == 0)
            break;
        lastErr = std::string("bind/listen ") + spec + ": " +
                  std::strerror(errno);
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
        if (error)
            *error = lastErr;
        return -1;
    }

    if (boundPort) {
        sockaddr_storage ss{};
        socklen_t len = sizeof(ss);
        *boundPort = target->port;
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&ss), &len) ==
            0) {
            if (ss.ss_family == AF_INET)
                *boundPort = ntohs(
                    reinterpret_cast<sockaddr_in *>(&ss)->sin_port);
            else if (ss.ss_family == AF_INET6)
                *boundPort = ntohs(
                    reinterpret_cast<sockaddr_in6 *>(&ss)->sin6_port);
        }
    }
    return fd;
}

/** Engine cache key, so flights and memo entries coalesce identically. */
std::string
flightKey(const RunRequest &req)
{
    std::ostringstream os;
    os << req.workload << '#' << std::hex << req.cfg.fingerprint();
    return os.str();
}

/** One wire frame (length prefix + payload), shareable across waiters. */
std::shared_ptr<const std::vector<std::uint8_t>>
makeFrame(const std::vector<std::uint8_t> &payload)
{
    auto f = std::make_shared<std::vector<std::uint8_t>>();
    f->reserve(payload.size() + 4);
    const std::uint32_t len = std::uint32_t(payload.size());
    f->push_back(std::uint8_t(len));
    f->push_back(std::uint8_t(len >> 8));
    f->push_back(std::uint8_t(len >> 16));
    f->push_back(std::uint8_t(len >> 24));
    f->insert(f->end(), payload.begin(), payload.end());
    return f;
}

std::shared_ptr<const std::vector<std::uint8_t>>
makeResponseFrame(ResponseStatus status, std::string error)
{
    RunResponse resp;
    resp.status = status;
    resp.error = std::move(error);
    return makeFrame(serializeResponse(resp));
}

} // namespace

GscalarServer::GscalarServer(ExperimentEngine &engine, Options opts)
    : engine_(engine), opts_(std::move(opts))
{
    path_ = opts_.socketPath.empty() ? defaultSocketPath()
                                     : opts_.socketPath;
}

GscalarServer::~GscalarServer()
{
    stop();
    if (handlersInstalled_) {
        ::sigaction(SIGINT, &oldInt_, nullptr);
        ::sigaction(SIGTERM, &oldTerm_, nullptr);
        g_signal_server.store(nullptr);
    }
}

bool
GscalarServer::start(std::string *error)
{
    GS_ASSERT(!running_.load(), "start() on a running server");
    stopping_.store(false);
    stopWorkers_ = false;

    auto failCleanup = [this] {
        for (int *fd : {&listenFd_, &tcpListenFd_, &epollFd_,
                        &wakeFds_[0], &wakeFds_[1]}) {
            if (*fd >= 0) {
                ::close(*fd);
                *fd = -1;
            }
        }
    };

    epollFd_ = ::epoll_create1(0);
    if (epollFd_ < 0) {
        if (error)
            *error = std::string("epoll_create1: ") + std::strerror(errno);
        return false;
    }
    if (::pipe(wakeFds_) != 0) {
        if (error)
            *error = std::string("pipe: ") + std::strerror(errno);
        failCleanup();
        return false;
    }
    setNonBlocking(wakeFds_[0]);
    setNonBlocking(wakeFds_[1]);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        failCleanup();
        return false;
    }
    if (!bindUnixSocket(listenFd_, path_, error)) {
        failCleanup();
        return false;
    }
    if (::listen(listenFd_, 128) != 0) {
        if (error)
            *error = std::string("listen: ") + std::strerror(errno);
        failCleanup();
        ::unlink(path_.c_str());
        return false;
    }
    setNonBlocking(listenFd_);

    if (!opts_.tcpBind.empty()) {
        std::uint16_t port = 0;
        tcpListenFd_ = bindTcpSocket(opts_.tcpBind, &port, error);
        if (tcpListenFd_ < 0) {
            failCleanup();
            ::unlink(path_.c_str());
            return false;
        }
        setNonBlocking(tcpListenFd_);
        tcpPort_.store(port);
    }

    auto addFd = [this](int fd, std::uint64_t id) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = id;
        return ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) == 0;
    };
    if (!addFd(wakeFds_[0], kIdWake) ||
        !addFd(listenFd_, kIdUnixListen) ||
        (tcpListenFd_ >= 0 && !addFd(tcpListenFd_, kIdTcpListen))) {
        if (error)
            *error = std::string("epoll_ctl: ") + std::strerror(errno);
        failCleanup();
        ::unlink(path_.c_str());
        return false;
    }

    startTime_ = std::chrono::steady_clock::now();
    running_.store(true);
    reactorThread_ = std::thread([this] { reactorLoop(); });

    unsigned workers = opts_.serviceThreads;
    if (workers == 0)
        workers = engine_.jobs() + 2;
    serviceThreads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        serviceThreads_.emplace_back([this] { serviceLoop(); });
    return true;
}

void
GscalarServer::requestStop() noexcept
{
    stopping_.store(true);
    wakeReactor();
}

void
GscalarServer::wakeReactor() noexcept
{
    if (wakeFds_[1] >= 0) {
        const char byte = 1;
        // Best effort; a full pipe still wakes the reactor.
        [[maybe_unused]] ssize_t w = ::write(wakeFds_[1], &byte, 1);
    }
}

// ---- reactor ------------------------------------------------------------

GscalarServer::Conn *
GscalarServer::findConn(std::uint64_t id)
{
    const auto it = conns_.find(id);
    return it == conns_.end() ? nullptr : it->second.get();
}

void
GscalarServer::reactorLoop()
{
    std::vector<epoll_event> events(64);
    std::vector<BatchItem> batch;
    int spuriousBudget = kMaxInjectedSpurious;
    bool listenersClosed = false;
    std::chrono::steady_clock::time_point drainDeadline{};

    for (;;) {
        int timeoutMs = 250;
        if (opts_.idleTimeoutSec > 0)
            timeoutMs = std::clamp(int(opts_.idleTimeoutSec * 250), 10,
                                   250);
        if (stopping_.load())
            timeoutMs = std::min(timeoutMs, 50);

        const int n = ::epoll_wait(epollFd_, events.data(),
                                   int(events.size()), timeoutMs);
        const auto wake = std::chrono::steady_clock::now();
        if (n < 0) {
            if (errno == EINTR)
                continue;
            GS_WARN("gscalard: epoll_wait failed: ",
                    std::strerror(errno));
            break;
        }
        if (spuriousBudget > 0 &&
            injectFault("serve", FaultKind::EpollSpurious)) {
            // Phantom wakeup: drop this iteration on the floor. Level-
            // triggered epoll re-reports every ready fd next time, so
            // nothing is lost — the loop must merely survive it.
            --spuriousBudget;
            continue;
        }

        batch.clear();
        for (int i = 0; i < n; ++i) {
            const std::uint64_t id = events[i].data.u64;
            const std::uint32_t ev = events[i].events;
            if (id == kIdWake) {
                std::uint8_t buf[256];
                while (::read(wakeFds_[0], buf, sizeof(buf)) > 0) {
                }
            } else if (id == kIdUnixListen) {
                acceptReady(listenFd_, /*tcp=*/false);
            } else if (id == kIdTcpListen) {
                acceptReady(tcpListenFd_, /*tcp=*/true);
            } else if (Conn *conn = findConn(id)) {
                if (!conn->dead &&
                    (ev & (EPOLLIN | EPOLLHUP | EPOLLERR)))
                    readConn(*conn, batch);
                if (!conn->dead && (ev & EPOLLOUT))
                    flushConn(*conn);
            }
        }

        dispatchBatch(batch);
        drainCompletions();
        idleSweep(wake);
        reapDead();

        if (n > 0) {
            const auto busy = std::chrono::steady_clock::now() - wake;
            std::lock_guard<std::mutex> lock(latencyMutex_);
            reactorLoopHist_.record(
                std::chrono::duration<double>(busy).count());
        }

        if (stopping_.load()) {
            if (!listenersClosed) {
                closeListeners();
                listenersClosed = true;
                drainDeadline =
                    wake + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(
                                   kDrainFlushDeadlineSec));
            }
            bool completionsEmpty;
            {
                std::lock_guard<std::mutex> lock(completionMutex_);
                completionsEmpty = completions_.empty();
            }
            bool writesFlushed = true;
            for (const auto &[id, conn] : conns_)
                if (!conn->dead && !conn->wq.empty())
                    writesFlushed = false;
            if (flights_.empty() && completionsEmpty &&
                (writesFlushed ||
                 std::chrono::steady_clock::now() > drainDeadline))
                break;
        }
    }

    // Drained (or the loop died): every response owed has been fanned
    // out and flushed. Tear the connections down.
    for (auto &[id, conn] : conns_) {
        if (conn->fd >= 0)
            ::close(conn->fd);
        activeConns_.fetch_sub(1, std::memory_order_relaxed);
    }
    conns_.clear();
    closeListeners();
}

void
GscalarServer::closeListeners()
{
    for (int *fd : {&listenFd_, &tcpListenFd_}) {
        if (*fd >= 0) {
            ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, *fd, nullptr);
            ::close(*fd);
            *fd = -1;
        }
    }
}

void
GscalarServer::acceptReady(int listenFd, bool tcp)
{
    for (;;) {
        const int fd = ::accept4(listenFd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK)
                GS_WARN("gscalard: accept failed: ",
                        std::strerror(errno));
            return;
        }
        if (opts_.maxConnections > 0 &&
            activeConns_.load(std::memory_order_relaxed) >=
                opts_.maxConnections) {
            // Shed load instead of queueing unboundedly: tell the peer
            // why (it retries with backoff) and close. The frame is
            // tiny and the socket buffer empty, so the nonblocking
            // send is best-effort in practice.
            // Count before sending: the peer may act on the frame the
            // instant send() lands, and must then observe the shed.
            overloads_.fetch_add(1);
            healthCounters().daemonOverloads.fetch_add(
                1, std::memory_order_relaxed);
            RunResponse resp;
            resp.status = ResponseStatus::Overloaded;
            resp.error = "connection cap (" +
                         std::to_string(opts_.maxConnections) +
                         ") reached; retry with backoff";
            const auto frame = makeFrame(serializeResponse(resp));
            [[maybe_unused]] ssize_t w =
                ::send(fd, frame->data(), frame->size(), MSG_NOSIGNAL);
            ::close(fd);
            continue;
        }
        if (tcp) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
        }

        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->id = nextConnId_++;
        conn->lastActivity = std::chrono::steady_clock::now();
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            GS_WARN("gscalard: epoll_ctl(conn) failed: ",
                    std::strerror(errno));
            ::close(fd);
            continue;
        }
        conns_.emplace(conn->id, std::move(conn));
        activeConns_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
GscalarServer::readConn(Conn &conn, std::vector<BatchItem> &batch)
{
    std::uint8_t chunk[16384];
    for (;;) {
        const ssize_t r = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (r > 0) {
            conn.lastActivity = std::chrono::steady_clock::now();
            if (conn.closing)
                continue; // discard: the goodbye frame is in the wq
            conn.rbuf.insert(conn.rbuf.end(), chunk, chunk + r);
            parseFrames(conn, batch);
            if (conn.dead)
                return;
            continue;
        }
        if (r == 0) {
            // EOF: reclaim the slot immediately — a burst-then-idle
            // daemon must never pin dead connections (the epoll
            // lifecycle replaced the old reap-on-next-accept). Any
            // response still owed is dropped with the peer.
            conn.sawEof = true;
            markDead(conn);
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        markDead(conn); // ECONNRESET and friends
        return;
    }
}

void
GscalarServer::parseFrames(Conn &conn, std::vector<BatchItem> &batch)
{
    for (;;) {
        const std::size_t avail = conn.rbuf.size() - conn.rpos;
        if (avail < 4)
            break;
        const std::uint8_t *p = conn.rbuf.data() + conn.rpos;
        const std::uint32_t len = std::uint32_t(p[0]) |
                                  (std::uint32_t(p[1]) << 8) |
                                  (std::uint32_t(p[2]) << 16) |
                                  (std::uint32_t(p[3]) << 24);
        if (len > opts_.maxFrameBytes) {
            // Size-guard trip: answer before hanging up so the peer
            // learns the limit instead of diagnosing a dead socket.
            frameRejects_.fetch_add(1);
            healthCounters().daemonFrameRejects.fetch_add(
                1, std::memory_order_relaxed);
            RunResponse resp;
            resp.status = ResponseStatus::BadRequest;
            resp.error = "frame exceeds the " +
                         std::to_string(opts_.maxFrameBytes) +
                         " byte limit";
            respond(conn, resp);
            conn.closing = true;
            conn.rbuf.clear();
            conn.rpos = 0;
            return;
        }
        if (avail < 4 + std::size_t(len))
            break;
        handleFrame(conn, p + 4, len, batch);
        conn.rpos += 4 + std::size_t(len);
        if (conn.dead || conn.closing) {
            conn.rbuf.clear();
            conn.rpos = 0;
            return;
        }
    }
    if (conn.rpos == conn.rbuf.size()) {
        conn.rbuf.clear();
        conn.rpos = 0;
    } else if (conn.rpos > std::size_t(64) << 10) {
        conn.rbuf.erase(conn.rbuf.begin(),
                        conn.rbuf.begin() +
                            std::ptrdiff_t(conn.rpos));
        conn.rpos = 0;
    }
}

void
GscalarServer::handleFrame(Conn &conn, const std::uint8_t *data,
                           std::size_t size,
                           std::vector<BatchItem> &batch)
{
    const std::optional<BlobKind> kind = peekKind(data, size);
    if (kind == BlobKind::Ping) {
        enqueueFrame(conn, makeFrame(serializePong()));
        return;
    }
    if (kind == BlobKind::StatsRequest) {
        enqueueFrame(conn, makeFrame(serializeStatsResponse(stats())));
        return;
    }
    if (kind != BlobKind::Request) {
        RunResponse resp;
        resp.status = ResponseStatus::BadRequest;
        resp.error = "unexpected message kind";
        respond(conn, resp);
        return;
    }

    RunResponse resp;
    std::string err;
    std::optional<RunRequest> req = deserializeRequest(data, size, &err);
    if (!req) {
        resp.status = ResponseStatus::BadRequest;
        resp.error = "malformed request: " + err;
        respond(conn, resp);
        return;
    }
    if (!workloadResolvable(req->workload)) {
        resp.status = ResponseStatus::BadRequest;
        resp.error = "unknown workload '" + req->workload + "'";
        respond(conn, resp);
        return;
    }
    if (std::string bad = req->cfg.check(); !bad.empty()) {
        resp.status = ResponseStatus::BadRequest;
        resp.error = "invalid configuration: " + bad;
        respond(conn, resp);
        return;
    }
    if (stopping_.load()) {
        resp.status = ResponseStatus::ShuttingDown;
        resp.error = "server is draining";
        respond(conn, resp);
        return;
    }

    conn.inFlight++;
    BatchItem item;
    item.connId = conn.id;
    item.req = std::move(*req);
    batch.push_back(std::move(item));
}

void
GscalarServer::dispatchBatch(std::vector<BatchItem> &batch)
{
    if (batch.empty())
        return;
    batches_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t peak = batchPeak_.load(std::memory_order_relaxed);
    while (peak < batch.size() &&
           !batchPeak_.compare_exchange_weak(peak, batch.size())) {
    }

    const auto now = std::chrono::steady_clock::now();
    for (BatchItem &item : batch) {
        const std::string key = flightKey(item.req);
        const auto it = flights_.find(key);
        if (it != flights_.end()) {
            // Singleflight join: park on the flight in the air and
            // share its one computation (and its one serialization).
            Flight &flight = it->second;
            flight.waiters.push_back({item.connId, now});
            coalesceFollowers_.fetch_add(1, std::memory_order_relaxed);
            if (item.req.priority > flight.priority) {
                // Priority inheritance: a high-priority follower must
                // not wait behind the leader's lower band.
                std::lock_guard<std::mutex> lock(pendingMutex_);
                auto &from = pending_[flight.priority];
                for (auto job = from.begin(); job != from.end(); ++job) {
                    if (job->key == key) {
                        PendingJob moved = std::move(*job);
                        from.erase(job);
                        auto &to = pending_[item.req.priority];
                        to.push_back(std::move(moved));
                        queuePeaks_[item.req.priority] = std::max(
                            queuePeaks_[item.req.priority],
                            std::uint64_t(to.size()));
                        break;
                    }
                }
                flight.priority = item.req.priority;
            }
            continue;
        }

        // New flight: admission control. The queue bound covers
        // flights not yet picked up by a service thread; when it is
        // full a lower-band queued flight is shed to make room, else
        // the arrival itself is shed.
        std::string victimKey;
        bool admitted = true;
        {
            std::lock_guard<std::mutex> lock(pendingMutex_);
            std::size_t total = 0;
            for (const auto &band : pending_)
                total += band.size();
            if (opts_.maxQueuedFlights > 0 &&
                total >= opts_.maxQueuedFlights) {
                for (std::uint32_t band = 0; band < item.req.priority;
                     ++band) {
                    if (!pending_[band].empty()) {
                        victimKey = pending_[band].back().key;
                        pending_[band].pop_back();
                        break;
                    }
                }
                if (victimKey.empty())
                    admitted = false;
            }
            if (admitted) {
                auto &band = pending_[item.req.priority];
                PendingJob job;
                job.key = key;
                job.req = item.req;
                job.created = now;
                band.push_back(std::move(job));
                queuePeaks_[item.req.priority] =
                    std::max(queuePeaks_[item.req.priority],
                             std::uint64_t(band.size()));
            }
        }
        if (!victimKey.empty())
            shedFlight(victimKey,
                       "shed by a higher-priority arrival; retry with "
                       "backoff");
        if (!admitted) {
            queueSheds_.fetch_add(1, std::memory_order_relaxed);
            healthCounters().daemonQueueSheds.fetch_add(
                1, std::memory_order_relaxed);
            if (Conn *conn = findConn(item.connId)) {
                RunResponse resp;
                resp.status = ResponseStatus::Overloaded;
                resp.error =
                    "admission queue full (" +
                    std::to_string(opts_.maxQueuedFlights) +
                    ") at priority " + std::to_string(item.req.priority) +
                    "; retry with backoff";
                conn->inFlight--;
                respond(*conn, resp);
            }
            continue;
        }

        Flight flight;
        flight.req = item.req;
        flight.priority = item.req.priority;
        flight.created = now;
        flight.waiters.push_back({item.connId, now});
        flights_.emplace(key, std::move(flight));
        coalesceLeaders_.fetch_add(1, std::memory_order_relaxed);
        pendingCv_.notify_one();
    }
}

void
GscalarServer::shedFlight(const std::string &key, const std::string &why)
{
    const auto it = flights_.find(key);
    if (it == flights_.end())
        return;
    queueSheds_.fetch_add(1, std::memory_order_relaxed);
    healthCounters().daemonQueueSheds.fetch_add(
        1, std::memory_order_relaxed);
    const auto frame = makeResponseFrame(ResponseStatus::Overloaded, why);
    for (const Waiter &w : it->second.waiters) {
        if (Conn *conn = findConn(w.connId)) {
            conn->inFlight--;
            enqueueFrame(*conn, frame);
        }
    }
    flights_.erase(it);
}

void
GscalarServer::drainCompletions()
{
    for (;;) {
        Completion done;
        {
            std::lock_guard<std::mutex> lock(completionMutex_);
            if (completions_.empty())
                return;
            done = std::move(completions_.front());
            completions_.pop_front();
        }
        fanOut(done.key, done);
    }
}

void
GscalarServer::fanOut(const std::string &key, const Completion &done)
{
    const auto it = flights_.find(key);
    if (it == flights_.end())
        return;
    Flight &flight = it->second;

    if (done.leaderCrash) {
        // The leader died mid-flight; promote: re-dispatch the same
        // flight at the front of its band, marked so the rerun is
        // exempt from injection (transient-fault contract) — every
        // follower still gets its answer.
        coalescePromotions_.fetch_add(1, std::memory_order_relaxed);
        healthCounters().coalescePromotions.fetch_add(
            1, std::memory_order_relaxed);
        flight.dispatched = false;
        PendingJob job;
        job.key = key;
        job.req = flight.req;
        job.promoted = true;
        job.created = flight.created;
        {
            std::lock_guard<std::mutex> lock(pendingMutex_);
            auto &band = pending_[flight.priority];
            band.push_front(std::move(job));
            queuePeaks_[flight.priority] =
                std::max(queuePeaks_[flight.priority],
                         std::uint64_t(band.size()));
        }
        pendingCv_.notify_one();
        return;
    }

    const auto now = std::chrono::steady_clock::now();
    const bool ok = done.status == ResponseStatus::Ok;
    for (const Waiter &w : flight.waiters) {
        Conn *conn = findConn(w.connId);
        if (conn == nullptr || conn->dead)
            continue; // the peer hung up while waiting
        conn->inFlight--;
        conn->lastActivity = now;
        // Count before sending: the peer may act on the frame the
        // instant send() lands, and must then observe the serve.
        if (ok) {
            served_.fetch_add(1);
            std::lock_guard<std::mutex> lock(latencyMutex_);
            latency_[flight.req.workload].record(
                std::chrono::duration<double>(now - w.start).count());
        }
        enqueueFrame(*conn, done.frame);
    }
    flights_.erase(it);
}

void
GscalarServer::idleSweep(std::chrono::steady_clock::time_point now)
{
    for (auto &[id, conn] : conns_) {
        if (conn->dead)
            continue;
        const double idle =
            std::chrono::duration<double>(now - conn->lastActivity)
                .count();
        if (conn->closing) {
            const double grace = opts_.idleTimeoutSec > 0
                                     ? opts_.idleTimeoutSec
                                     : kClosingGraceSec;
            if (conn->wq.empty() && (conn->sawEof || idle > grace))
                markDead(*conn);
            continue;
        }
        if (opts_.idleTimeoutSec > 0 && conn->inFlight == 0 &&
            conn->wq.empty() && idle > opts_.idleTimeoutSec) {
            idleCloses_.fetch_add(1);
            healthCounters().daemonIdleCloses.fetch_add(
                1, std::memory_order_relaxed);
            markDead(*conn);
        }
    }
}

void
GscalarServer::markDead(Conn &conn)
{
    conn.dead = true;
}

void
GscalarServer::reapDead()
{
    for (auto it = conns_.begin(); it != conns_.end();) {
        if (it->second->dead) {
            Conn &conn = *it->second;
            ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, conn.fd, nullptr);
            ::close(conn.fd);
            activeConns_.fetch_sub(1, std::memory_order_relaxed);
            it = conns_.erase(it);
        } else {
            ++it;
        }
    }
}

void
GscalarServer::respond(Conn &conn, const RunResponse &resp)
{
    enqueueFrame(conn, makeFrame(serializeResponse(resp)));
}

void
GscalarServer::enqueueFrame(
    Conn &conn, std::shared_ptr<const std::vector<std::uint8_t>> f)
{
    if (conn.dead)
        return;
    conn.wq.push_back(OutBuf{std::move(f), 0});
    flushConn(conn);
}

void
GscalarServer::flushConn(Conn &conn)
{
    while (!conn.wq.empty()) {
        OutBuf &b = conn.wq.front();
        const ssize_t w =
            ::send(conn.fd, b.frame->data() + b.off,
                   b.frame->size() - b.off, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                armWrite(conn, true);
                return;
            }
            markDead(conn); // EPIPE/ECONNRESET: the peer is gone
            return;
        }
        b.off += std::size_t(w);
        if (b.off == b.frame->size())
            conn.wq.pop_front();
    }
    if (conn.wantWrite)
        armWrite(conn, false);
    if (conn.closing && conn.sawEof)
        markDead(conn);
}

void
GscalarServer::armWrite(Conn &conn, bool on)
{
    if (conn.wantWrite == on)
        return;
    epoll_event ev{};
    ev.events = on ? std::uint32_t(EPOLLIN | EPOLLOUT)
                   : std::uint32_t(EPOLLIN);
    ev.data.u64 = conn.id;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0)
        conn.wantWrite = on;
}

// ---- service pool -------------------------------------------------------

void
GscalarServer::serviceLoop()
{
    for (;;) {
        PendingJob job;
        {
            std::unique_lock<std::mutex> lock(pendingMutex_);
            pendingCv_.wait(lock, [this] {
                if (stopWorkers_)
                    return true;
                for (const auto &band : pending_)
                    if (!band.empty())
                        return true;
                return false;
            });
            bool found = false;
            for (std::uint32_t band = kNumPriorities; band-- > 0;) {
                if (!pending_[band].empty()) {
                    job = std::move(pending_[band].front());
                    pending_[band].pop_front();
                    found = true;
                    break;
                }
            }
            if (!found) {
                if (stopWorkers_)
                    return;
                continue;
            }
        }
        runJob(std::move(job));
    }
}

void
GscalarServer::runJob(PendingJob job)
{
    Completion done;
    done.key = job.key;

    if (!job.promoted &&
        injectFault("serve", FaultKind::CoalesceLeaderCrash)) {
        // The leader's computation dies before reaching the engine;
        // the reactor must promote (re-dispatch) so followers are
        // never stranded on a dead flight.
        done.leaderCrash = true;
        postCompletion(std::move(done));
        return;
    }
    // A promoted rerun is the recovery path: injected faults model
    // transient failures, so it runs exempt from further injection.
    std::optional<FaultInjector::Suppress> guard;
    if (job.promoted)
        guard.emplace();

    RunResponse resp;
    const auto budget = std::chrono::duration<double>(
        opts_.requestTimeoutSec > 0 ? opts_.requestTimeoutSec : 1e9);
    const auto elapsed = std::chrono::steady_clock::now() - job.created;
    try {
        if (elapsed >= budget) {
            resp.status = ResponseStatus::Timeout;
            resp.error = "simulation exceeded the request budget";
        } else {
            std::shared_future<RunResult> future =
                engine_.submit(job.req.workload, job.req.cfg);
            if (future.wait_for(budget - elapsed) !=
                std::future_status::ready) {
                resp.status = ResponseStatus::Timeout;
                resp.error = "simulation exceeded the request budget";
            } else {
                resp.result = future.get();
                if (resp.result.ok()) {
                    resp.status = ResponseStatus::Ok;
                } else {
                    // The engine retried and still failed; the error
                    // rides the result rather than an exception
                    // (engine.cpp), so map it to a status here.
                    resp.status = ResponseStatus::InternalError;
                    resp.error = resp.result.error;
                    resp.result = RunResult{};
                }
            }
        }
    } catch (const std::exception &e) {
        resp.status = ResponseStatus::InternalError;
        resp.error = e.what();
        resp.result = RunResult{};
    }

    done.status = resp.status;
    // Serialize exactly once: every waiter receives these same bytes,
    // which is what makes coalesced results byte-identical by
    // construction.
    done.frame = makeFrame(serializeResponse(resp));
    postCompletion(std::move(done));
}

void
GscalarServer::postCompletion(Completion done)
{
    {
        std::lock_guard<std::mutex> lock(completionMutex_);
        completions_.push_back(std::move(done));
    }
    wakeReactor();
}

// ---- stats / lifecycle --------------------------------------------------

DaemonStats
GscalarServer::stats() const
{
    DaemonStats s;
    const EngineSnapshot snap = engine_.snapshot();
    s.uptimeSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - startTime_)
                          .count();
    s.requestsServed = served_.load();
    s.activeConnections = std::uint32_t(activeConnections());
    s.jobs = snap.jobs;
    s.queueDepth = snap.queueDepth;
    s.peakQueueDepth = snap.peakQueueDepth;
    s.cacheHits = snap.cache.hits;
    s.cacheMisses = snap.cache.misses;
    s.diskCacheHits = snap.cache.diskHits;
    s.diskCacheStores = snap.cache.diskStores;
    s.simWallSeconds = snap.wallSumSeconds;
    s.simCycles = snap.simCycles;
    s.warpInsts = snap.warpInsts;
    s.overloads = overloads_.load();
    s.idleCloses = idleCloses_.load();
    s.frameRejects = frameRejects_.load();
    s.coalesceLeaders = coalesceLeaders_.load();
    s.coalesceFollowers = coalesceFollowers_.load();
    s.coalescePromotions = coalescePromotions_.load();
    s.batches = batches_.load();
    s.batchPeak = batchPeak_.load();
    s.queueSheds = queueSheds_.load();
    {
        std::lock_guard<std::mutex> lock(pendingMutex_);
        for (std::size_t i = 0; i < kNumPriorities; ++i) {
            s.queueDepths[i] = pending_[i].size();
            s.queuePeaks[i] = queuePeaks_[i];
        }
    }
    std::lock_guard<std::mutex> lock(latencyMutex_);
    s.reactorLoop = reactorLoopHist_;
    for (const auto &[name, hist] : latency_)
        s.workloads.push_back({name, hist}); // std::map: sorted by name
    return s;
}

void
GscalarServer::wait()
{
    if (reactorThread_.joinable())
        reactorThread_.join();

    {
        std::lock_guard<std::mutex> lock(pendingMutex_);
        stopWorkers_ = true;
    }
    pendingCv_.notify_all();
    for (std::thread &t : serviceThreads_)
        if (t.joinable())
            t.join();
    serviceThreads_.clear();

    closeListeners();
    if (epollFd_ >= 0) {
        ::close(epollFd_);
        epollFd_ = -1;
    }
    for (int &fd : wakeFds_) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
    if (running_.load())
        ::unlink(path_.c_str());
    running_.store(false);
}

void
GscalarServer::stop()
{
    if (!running_.load())
        return;
    requestStop();
    wait();
}

bool
GscalarServer::installSignalHandlers(std::string *error)
{
    GscalarServer *expected = nullptr;
    if (!g_signal_server.compare_exchange_strong(expected, this)) {
        if (error)
            *error = "another server already owns the signal handlers";
        return false;
    }
    struct sigaction sa = {};
    sa.sa_handler = gscalardSignalHandler;
    ::sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: let blocking calls see EINTR
    if (::sigaction(SIGINT, &sa, &oldInt_) != 0 ||
        ::sigaction(SIGTERM, &sa, &oldTerm_) != 0) {
        if (error)
            *error = std::string("sigaction: ") + std::strerror(errno);
        g_signal_server.store(nullptr);
        return false;
    }
    handlersInstalled_ = true;
    return true;
}

namespace
{

/** Whole-string seconds in [0, one day]: no sign, exponent, inf or
 *  nan reaches the reactor's integer timeout casts. */
std::optional<double>
parseSeconds(const std::string &v)
{
    char *end = nullptr;
    const double s = std::strtod(v.c_str(), &end);
    if (v.empty() || v.find_first_not_of("0123456789.") != std::string::npos ||
        *end != '\0' || !(s >= 0 && s <= 86400))
        return std::nullopt;
    return s;
}

} // namespace

std::string
parseServeFlags(int argc, char **argv, int &i, GscalarServer::Options &opts)
{
    for (; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--cache" || a.rfind("--fault=", 0) == 0)
            continue; // process-wide: initHarness() applies it
        const bool processWide = a == "--codec" || a == "--fault" ||
                                 a == "--jobs" || a == "-j" ||
                                 a == "--sim-threads";
        if (!processWide && a != "--socket" && a != "--tcp" &&
            a != "--timeout" && a != "--idle-timeout" &&
            a != "--max-connections" && a != "--max-frame-bytes" &&
            a != "--max-queued" && a != "--service-threads")
            return {};
        if (i + 1 >= argc)
            return a + " needs a value";
        const std::string v = argv[++i];
        if (processWide)
            continue;
        auto count = [&v](std::uint64_t lo, std::uint64_t hi, auto &out) {
            const std::optional<std::uint64_t> n = parseDecimal(v, lo, hi);
            if (n)
                out = std::remove_reference_t<decltype(out)>(*n);
            return n ? std::string()
                     : detail::formatMsg("want an integer in [", lo, ", ",
                                         hi, "]");
        };
        std::string why;
        if (a == "--socket") {
            opts.socketPath = v;
        } else if (a == "--tcp") {
            if (parseConnectTarget(v, &why, /*allowPortZero=*/true))
                opts.tcpBind = v;
        } else if (a == "--timeout" || a == "--idle-timeout") {
            const std::optional<double> s = parseSeconds(v);
            if (!s)
                why = "want seconds in [0, 86400]";
            else
                (a == "--timeout" ? opts.requestTimeoutSec
                                  : opts.idleTimeoutSec) = *s;
        } else if (a == "--max-connections") {
            why = count(0, UINT32_MAX, opts.maxConnections);
        } else if (a == "--max-frame-bytes") {
            why = count(1, kMaxFrameBytes, opts.maxFrameBytes);
        } else if (a == "--max-queued") {
            why = count(0, UINT32_MAX, opts.maxQueuedFlights);
        } else if (const std::optional<unsigned> n = parseJobsValue(v)) {
            opts.serviceThreads = *n; // --service-threads, the last flag
        } else {
            why = "want an integer in [1, 4096]";
        }
        if (!why.empty())
            return "invalid " + a + " value '" + v + "': " + why;
    }
    return {};
}

} // namespace gs
