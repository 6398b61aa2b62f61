#include "client.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "fault/health.hpp"

namespace gs
{

namespace
{

constexpr const char *kEnvMillisWant =
    "want a number of milliseconds in [0, 86400000]";

/**
 * A whole-string millisecond count in [0, one day]. The bound keeps
 * inf, nan and huge values away from the integer duration casts of
 * the connect and retry deadlines.
 */
std::optional<double>
parseEnvMillis(const char *s)
{
    char *end = nullptr;
    const double ms = std::strtod(s, &end);
    if (end == s || *end != '\0' || !(ms >= 0 && ms <= 86'400'000.0))
        return std::nullopt;
    return ms;
}

} // namespace

ClientOptions
ClientOptions::fromEnv()
{
    ClientOptions opts;
    if (const char *env = std::getenv("GS_CONNECT_TIMEOUT_MS");
        env && *env) {
        if (const std::optional<double> ms = parseEnvMillis(env))
            opts.connectTimeoutSec = *ms / 1000.0;
        else
            GS_WARN("ignoring GS_CONNECT_TIMEOUT_MS='", env, "' (",
                    kEnvMillisWant, ")");
    }
    if (const char *env = std::getenv("GS_RETRIES"); env && *env) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end && *end == '\0' && v >= 1 && v <= 100)
            opts.attempts = unsigned(v);
        else
            GS_WARN("ignoring GS_RETRIES='", env,
                    "' (want an integer in [1, 100])");
    }
    if (const char *env = std::getenv("GS_RETRY_DEADLINE_MS");
        env && *env) {
        if (const std::optional<double> ms = parseEnvMillis(env))
            opts.retryDeadlineSec = *ms / 1000.0;
        else
            GS_WARN("ignoring GS_RETRY_DEADLINE_MS='", env, "' (",
                    kEnvMillisWant, ")");
    }
    return opts;
}

GscalarClient::GscalarClient(std::string socketPath,
                             std::optional<ClientOptions> opts)
    : path_(socketPath.empty() ? defaultSocketPath()
                               : std::move(socketPath)),
      opts_(opts ? *opts : ClientOptions::fromEnv())
{
}

GscalarClient::GscalarClient(ConnectTarget target,
                             std::optional<ClientOptions> opts)
    : path_("tcp://" + target.host + ":" + std::to_string(target.port)),
      target_(std::move(target)),
      opts_(opts ? *opts : ClientOptions::fromEnv())
{
}

GscalarClient::~GscalarClient()
{
    close();
}

void
GscalarClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
GscalarClient::connect(std::string *error)
{
    close();
    return target_ ? connectTcp(error) : connectUnix(error);
}

std::string
GscalarClient::awaitConnect(std::chrono::steady_clock::time_point deadline)
{
    // Connect in flight (e.g. the daemon's backlog is full): poll
    // for writability until the deadline, never forever.
    for (;;) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0) {
            healthCounters().clientConnectTimeouts.fetch_add(
                1, std::memory_order_relaxed);
            return "connect timed out after " +
                   std::to_string(opts_.connectTimeoutSec) + "s";
        }
        pollfd pfd{fd_, POLLOUT, 0};
        const int rc = ::poll(&pfd, 1, int(left.count()));
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return std::string("poll: ") + std::strerror(errno);
        }
        if (rc > 0)
            break;
        // rc == 0: poll timed out; loop re-checks the deadline.
    }
    int soErr = 0;
    socklen_t len = sizeof(soErr);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soErr, &len) != 0)
        return std::string("getsockopt: ") + std::strerror(errno);
    if (soErr != 0)
        return std::strerror(soErr);
    return {};
}

bool
GscalarClient::connectUnix(std::string *error)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path_.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "socket path too long: " + path_;
        return false;
    }
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);

    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }

    auto fail = [&](const std::string &why) {
        if (error)
            *error = "cannot reach gscalard at " + path_ + ": " + why +
                     " (start one with `gscalar serve`)";
        close();
        return false;
    };

    const bool bounded = opts_.connectTimeoutSec > 0;
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (bounded)
        ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);

    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (!bounded || (errno != EINPROGRESS && errno != EAGAIN))
            return fail(std::strerror(errno));
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(opts_.connectTimeoutSec));
        if (std::string why = awaitConnect(deadline); !why.empty())
            return fail(why);
    }

    if (bounded)
        ::fcntl(fd_, F_SETFL, flags); // back to blocking I/O
    return true;
}

bool
GscalarClient::connectTcp(std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = "cannot reach gscalard at " + path_ + ": " + why +
                     " (start one with `gscalar serve --tcp`)";
        close();
        return false;
    };

    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    const std::string portStr = std::to_string(target_->port);
    const int rc =
        ::getaddrinfo(target_->host.c_str(), portStr.c_str(), &hints,
                      &res);
    if (rc != 0)
        return fail(std::string("resolve: ") + ::gai_strerror(rc));

    // One deadline bounds the whole connect, across every address the
    // name resolved to — a wedged daemon can never hang a client.
    const bool bounded = opts_.connectTimeoutSec > 0;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(opts_.connectTimeoutSec));
    std::string lastWhy = "no addresses";
    for (addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
        fd_ = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd_ < 0) {
            lastWhy = std::string("socket: ") + std::strerror(errno);
            continue;
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        const int flags = ::fcntl(fd_, F_GETFL, 0);
        if (bounded)
            ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);

        int crc = ::connect(fd_, ai->ai_addr, ai->ai_addrlen);
        if (crc != 0 && bounded &&
            (errno == EINPROGRESS || errno == EAGAIN)) {
            lastWhy = awaitConnect(deadline);
            crc = lastWhy.empty() ? 0 : -1;
        } else if (crc != 0) {
            lastWhy = std::strerror(errno);
        }
        if (crc == 0) {
            if (bounded)
                ::fcntl(fd_, F_SETFL, flags); // back to blocking I/O
            ::freeaddrinfo(res);
            return true;
        }
        ::close(fd_);
        fd_ = -1;
        if (bounded && std::chrono::steady_clock::now() >= deadline)
            break;
    }
    ::freeaddrinfo(res);
    return fail(lastWhy);
}

std::optional<std::chrono::steady_clock::time_point>
GscalarClient::retryDeadline() const
{
    if (opts_.retryDeadlineSec <= 0)
        return std::nullopt;
    return std::chrono::steady_clock::now() +
           std::chrono::duration_cast<
               std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(opts_.retryDeadlineSec));
}

bool
GscalarClient::backoffBeforeRetry(
    unsigned attempt,
    const std::optional<std::chrono::steady_clock::time_point> &deadline)
{
    double delay = opts_.backoffBaseSec;
    for (unsigned i = 0; i < attempt && delay < opts_.backoffMaxSec; ++i)
        delay *= 2;
    if (delay > opts_.backoffMaxSec)
        delay = opts_.backoffMaxSec;
    // Jitter decorrelates clients without losing reproducibility: the
    // factor for retry n is a pure function of (jitterSeed, n).
    Rng rng(opts_.jitterSeed ^ (std::uint64_t(attempt) + 1));
    delay *= 0.5 + 0.5 * rng.uniform();
    if (deadline) {
        // A sleep that would cross the deadline buys nothing: the next
        // attempt could not start in time anyway, so fail fast.
        const auto wake =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(delay));
        if (wake >= *deadline)
            return false;
    }
    healthCounters().clientRetries.fetch_add(1,
                                             std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    return true;
}

bool
GscalarClient::ping(std::string *error)
{
    const auto deadline = retryDeadline();
    for (unsigned attempt = 0;; ++attempt) {
        std::string err;
        bool ok = false;
        if (fd_ >= 0 || connect(&err)) {
            ok = writeFrame(fd_, serializePing());
            if (!ok)
                err = "cannot send ping";
            if (ok) {
                std::vector<std::uint8_t> payload;
                ok = readFrame(fd_, payload, &err) == 1;
                if (ok && peekKind(payload.data(), payload.size()) !=
                              BlobKind::Pong) {
                    err = "unexpected reply to ping";
                    ok = false;
                }
            }
        }
        if (ok)
            return true;
        close(); // the connection state is unknown; start fresh
        if (attempt + 1 >= opts_.attempts) {
            if (error)
                *error = err;
            return false;
        }
        if (!backoffBeforeRetry(attempt, deadline)) {
            if (error)
                *error = err + " (retry deadline exceeded after " +
                         std::to_string(attempt + 1) + " attempts)";
            return false;
        }
    }
}

std::optional<RunResponse>
GscalarClient::exchange(const RunRequest &req, std::string *error)
{
    if (fd_ < 0 && !connect(error))
        return std::nullopt;
    if (!writeFrame(fd_, serializeRequest(req))) {
        if (error)
            *error = "cannot send request (daemon gone?)";
        close();
        return std::nullopt;
    }
    std::vector<std::uint8_t> payload;
    const int rc = readFrame(fd_, payload, error);
    if (rc != 1) {
        if (rc == 0 && error)
            *error = "daemon closed the connection before responding";
        close();
        return std::nullopt;
    }
    return deserializeResponse(payload.data(), payload.size(), error);
}

std::optional<DaemonStats>
GscalarClient::stats(std::string *error)
{
    const auto deadline = retryDeadline();
    for (unsigned attempt = 0;; ++attempt) {
        std::string err;
        std::optional<DaemonStats> out;
        if (fd_ >= 0 || connect(&err)) {
            if (!writeFrame(fd_, serializeStatsRequest())) {
                err = "cannot send stats request (daemon gone?)";
            } else {
                std::vector<std::uint8_t> payload;
                const int rc = readFrame(fd_, payload, &err);
                if (rc == 0)
                    err = "daemon closed the connection before "
                          "responding";
                if (rc == 1) {
                    if (peekKind(payload.data(), payload.size()) !=
                        BlobKind::StatsResponse)
                        err = "unexpected reply to stats request";
                    else
                        out = deserializeStatsResponse(
                            payload.data(), payload.size(), &err);
                }
            }
        }
        if (out)
            return out;
        close();
        if (attempt + 1 >= opts_.attempts) {
            if (error)
                *error = err;
            return std::nullopt;
        }
        if (!backoffBeforeRetry(attempt, deadline)) {
            if (error)
                *error = err + " (retry deadline exceeded after " +
                         std::to_string(attempt + 1) + " attempts)";
            return std::nullopt;
        }
    }
}

std::optional<RunResult>
GscalarClient::run(const std::string &workload, const ArchConfig &cfg,
                   std::string *error, std::uint32_t priority)
{
    RunRequest req;
    req.workload = workload;
    req.cfg = cfg;
    req.priority = priority;

    const auto deadline = retryDeadline();
    for (unsigned attempt = 0;; ++attempt) {
        std::string err;
        const std::optional<RunResponse> resp = exchange(req, &err);
        bool retryable = !resp; // transport failure
        if (resp) {
            if (resp->status == ResponseStatus::Ok)
                return resp->result;
            err = std::string(responseStatusName(resp->status)) + ": " +
                  resp->error;
            retryable = retryableStatus(resp->status);
            // A non-Ok response leaves the stream positioned between
            // frames, but reconnecting is cheaper than reasoning about
            // which statuses also closed the connection server-side.
            close();
        }
        if (!retryable || attempt + 1 >= opts_.attempts) {
            if (error)
                *error = err;
            return std::nullopt;
        }
        if (!backoffBeforeRetry(attempt, deadline)) {
            if (error)
                *error = err + " (retry deadline exceeded after " +
                         std::to_string(attempt + 1) + " attempts)";
            return std::nullopt;
        }
    }
}

} // namespace gs
