#include "server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
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

std::chrono::steady_clock::duration
seconds(double s)
{
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(s));
}

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

/** One wire frame (length prefix + payload), shareable across peers. */
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

/** A finished request travelling engine worker -> reactor. */
struct GscalarServer::Completion
{
    std::uint64_t reqId = 0;
    ResponseStatus status = ResponseStatus::InternalError;
    Frame frame;
};

struct GscalarServer::Mailbox
{
    std::mutex mutex;
    std::deque<Completion> completions;
    /** Polled by the reactor. Closed with the last reference, so a late
     *  post or a signal never writes to a closed (or reused) fd. */
    const int wakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    const int wakeErrno = wakeFd < 0 ? errno : 0;

    ~Mailbox()
    {
        if (wakeFd >= 0)
            ::close(wakeFd);
    }

    void wake() noexcept
    {
        const std::uint64_t one = 1;
        [[maybe_unused]] ssize_t w = ::write(wakeFd, &one, sizeof(one));
    }

    void post(Completion done)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            completions.push_back(std::move(done));
        }
        wake();
    }
};

GscalarServer::GscalarServer(ExperimentEngine &engine, Options opts)
    : engine_(engine), opts_(std::move(opts)),
      mailbox_(std::make_shared<Mailbox>())
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

    auto failCleanup = [this] {
        for (int *fd : {&listenFd_, &tcpListenFd_, &epollFd_}) {
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
    if (mailbox_->wakeFd < 0) {
        if (error)
            *error = std::string("eventfd: ") +
                     std::strerror(mailbox_->wakeErrno);
        failCleanup();
        return false;
    }

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
    if (!addFd(mailbox_->wakeFd, kIdWake) ||
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
    return true;
}

void
GscalarServer::requestStop() noexcept
{
    stopping_.store(true);
    mailbox_->wake();
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
        if (!deadlines_.empty()) {
            const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                deadlines_.front().first - std::chrono::steady_clock::now());
            timeoutMs = int(std::clamp<std::int64_t>(left.count(), 0,
                                                     timeoutMs));
        }

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
                std::uint64_t posts = 0;
                [[maybe_unused]] ssize_t r =
                    ::read(mailbox_->wakeFd, &posts, sizeof(posts));
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
        sweepDeadlines(std::chrono::steady_clock::now());
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
                drainDeadline = wake + seconds(kDrainFlushDeadlineSec);
            }
            bool writesFlushed = true;
            for (const auto &[id, conn] : conns_)
                if (!conn->dead && !conn->wq.empty())
                    writesFlushed = false;
            if (outstanding_.empty() &&
                (writesFlushed ||
                 std::chrono::steady_clock::now() > drainDeadline))
                break;
        }
    }

    // Drained (or the loop died): every response owed has been sent
    // and flushed. Tear the connections down.
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
            const Frame frame = makeResponseFrame(
                ResponseStatus::Overloaded,
                "connection cap (" + std::to_string(opts_.maxConnections) +
                    ") reached; retry with backoff");
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
            conn.dead = true;
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        conn.dead = true; // ECONNRESET and friends
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
            enqueueFrame(conn, makeResponseFrame(
                                   ResponseStatus::BadRequest,
                                   "frame exceeds the " +
                                       std::to_string(opts_.maxFrameBytes) +
                                       " byte limit"));
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
    auto refuse = [&](ResponseStatus status, const std::string &why) {
        enqueueFrame(conn, makeResponseFrame(status, why));
    };
    if (kind != BlobKind::Request)
        return refuse(ResponseStatus::BadRequest, "unexpected message kind");

    std::string err;
    std::optional<RunRequest> req = deserializeRequest(data, size, &err);
    if (!req)
        return refuse(ResponseStatus::BadRequest,
                      "malformed request: " + err);
    // Parse-only: nothing is built or expanded on the reactor.
    if (!workloadResolvable(req->workload, &err))
        return refuse(ResponseStatus::BadRequest, err);
    if (std::string bad = req->cfg.check(); !bad.empty())
        return refuse(ResponseStatus::BadRequest,
                      "invalid configuration: " + bad);
    if (stopping_.load())
        return refuse(ResponseStatus::ShuttingDown, "server is draining");

    conn.owed++;
    batch.push_back({conn.id, std::move(*req)});
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
        const std::uint64_t id = nextReqId_++;
        // Recorded first: a memo hit calls back before submitAsync()
        // returns. The callback captures the mailbox, never `this`.
        outstanding_.emplace(id, Outstanding{item.connId,
                                             item.req.workload, now});
        auto done = [box = mailbox_, id](const RunResult *r) {
            RunResponse resp;
            if (!r) {
                resp.status = ResponseStatus::Overloaded;
                resp.error = "shed by a higher-priority arrival; retry "
                             "with backoff";
            } else if (r->ok()) {
                resp.status = ResponseStatus::Ok;
                resp.result = *r;
            } else {
                // The engine retried (where that can help) and still
                // failed; the error rides the result.
                resp.status = ResponseStatus::InternalError;
                resp.error = r->error;
            }
            box->post({id, resp.status, makeFrame(serializeResponse(resp))});
        };
        const Admission how = engine_.submitAsync(
            item.req.workload, item.req.cfg, item.req.priority,
            opts_.maxQueuedRuns, std::move(done));
        if (how == Admission::Refused) {
            answer(id, ResponseStatus::Overloaded,
                   makeResponseFrame(
                       ResponseStatus::Overloaded,
                       "admission queue full (" +
                           std::to_string(opts_.maxQueuedRuns) +
                           ") at priority " +
                           std::to_string(item.req.priority) +
                           "; retry with backoff"),
                   now);
            continue;
        }
        if (how == Admission::Started)
            coalesceLeaders_.fetch_add(1, std::memory_order_relaxed);
        else if (how == Admission::Joined)
            coalesceFollowers_.fetch_add(1, std::memory_order_relaxed);
        if (opts_.requestTimeoutSec > 0)
            deadlines_.emplace_back(now + seconds(opts_.requestTimeoutSec),
                                    id);
    }
}

void
GscalarServer::drainCompletions()
{
    std::deque<Completion> done;
    {
        std::lock_guard<std::mutex> lock(mailbox_->mutex);
        done.swap(mailbox_->completions);
    }
    const auto now = std::chrono::steady_clock::now();
    for (const Completion &c : done)
        answer(c.reqId, c.status, c.frame, now);
}

void
GscalarServer::answer(std::uint64_t reqId, ResponseStatus status,
                      const Frame &frame,
                      std::chrono::steady_clock::time_point now)
{
    const auto it = outstanding_.find(reqId);
    if (it == outstanding_.end())
        return; // already answered: a completion after its timeout
    const Outstanding req = std::move(it->second);
    outstanding_.erase(it);
    if (status == ResponseStatus::Overloaded) {
        queueSheds_.fetch_add(1, std::memory_order_relaxed);
        healthCounters().daemonQueueSheds.fetch_add(
            1, std::memory_order_relaxed);
    }
    Conn *conn = findConn(req.connId);
    if (conn == nullptr || conn->dead)
        return; // the peer hung up while waiting
    conn->owed--;
    conn->lastActivity = now;
    // Count before sending: the peer may act on the frame the instant
    // send() lands, and must then observe the serve.
    if (status == ResponseStatus::Ok) {
        served_.fetch_add(1);
        std::lock_guard<std::mutex> lock(latencyMutex_);
        latency_[req.workload].record(
            std::chrono::duration<double>(now - req.start).count());
    }
    enqueueFrame(*conn, frame);
}

void
GscalarServer::sweepDeadlines(std::chrono::steady_clock::time_point now)
{
    // Entries of requests already answered leave from the front too, so
    // the deque holds little more than the requests outstanding.
    while (!deadlines_.empty() &&
           (deadlines_.front().first <= now ||
            !outstanding_.count(deadlines_.front().second))) {
        const std::uint64_t id = deadlines_.front().second;
        deadlines_.pop_front();
        if (outstanding_.count(id))
            answer(id, ResponseStatus::Timeout,
                   makeResponseFrame(
                       ResponseStatus::Timeout,
                       "simulation exceeded the request budget"),
                   now);
    }
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
                conn->dead = true;
            continue;
        }
        if (opts_.idleTimeoutSec > 0 && conn->owed == 0 &&
            conn->wq.empty() && idle > opts_.idleTimeoutSec) {
            idleCloses_.fetch_add(1);
            healthCounters().daemonIdleCloses.fetch_add(
                1, std::memory_order_relaxed);
            conn->dead = true;
        }
    }
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
GscalarServer::enqueueFrame(Conn &conn, Frame f)
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
            conn.dead = true; // EPIPE/ECONNRESET: the peer is gone
            return;
        }
        b.off += std::size_t(w);
        if (b.off == b.frame->size())
            conn.wq.pop_front();
    }
    if (conn.wantWrite)
        armWrite(conn, false);
    if (conn.closing && conn.sawEof)
        conn.dead = true;
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
    s.batches = batches_.load();
    s.batchPeak = batchPeak_.load();
    s.queueSheds = queueSheds_.load();
    for (std::size_t i = 0; i < kNumPriorities; ++i) {
        s.queueDepths[i] = snap.bandDepths[i];
        s.queuePeaks[i] = snap.bandPeaks[i];
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
    // Requests still owed after a failed loop are dropped with their
    // connections; their late completions find no one.
    outstanding_.clear();
    deadlines_.clear();

    closeListeners();
    if (epollFd_ >= 0) {
        ::close(epollFd_);
        epollFd_ = -1;
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
        if (const std::optional<int> n = processFlagValues(a)) {
            if (i + *n >= argc)
                return a + " needs a value";
            i += *n; // process-wide: initHarness() applies it
            continue;
        }
        if (a != "--socket" && a != "--tcp" && a != "--timeout" &&
            a != "--idle-timeout" && a != "--max-connections" &&
            a != "--max-frame-bytes" && a != "--max-queued")
            return {};
        if (i + 1 >= argc)
            return a + " needs a value";
        const std::string v = argv[++i];
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
        } else {
            why = count(0, UINT32_MAX, opts.maxQueuedRuns);
        }
        if (!why.empty())
            return "invalid " + a + " value '" + v + "': " + why;
    }
    return {};
}

} // namespace gs
