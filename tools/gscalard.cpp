/**
 * @file
 * gscalard: standalone simulation daemon. Equivalent to
 * `gscalar serve` but as its own binary so deployments can ship the
 * service without the experiment drivers.
 *
 *   gscalard [--socket PATH] [--tcp HOST:PORT] [--timeout SEC]
 *            [--idle-timeout SEC] [--max-connections N]
 *            [--max-frame-bytes N] [--max-queued N]
 *            [--service-threads N] [--jobs N] [--codec NAME]
 *            [--cache] [--fault SPEC]
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "common/codec_id.hpp"
#include "common/log.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "gen/generator.hpp"
#include "harness/engine.hpp"
#include "serve/server.hpp"

#ifndef GS_VERSION
#define GS_VERSION "0.0.0-dev"
#endif

using namespace gs;

namespace
{

void
printUsage(std::ostream &os)
{
    os <<
        "usage: gscalard [--socket PATH] [--tcp HOST:PORT]\n"
        "                [--timeout SEC] [--jobs N]\n"
        "                [--idle-timeout SEC] [--max-connections N]\n"
        "                [--max-frame-bytes N] [--max-queued N]\n"
        "                [--service-threads N] [--cache]\n"
        "                [--fault SPEC]\n"
        "\n"
        "Serves simulation requests from gscalar submit /\n"
        "GscalarClient over a unix-domain socket (and optionally TCP),\n"
        "sharing one experiment engine (worker pool + run cache)\n"
        "across every client. One epoll reactor thread owns every\n"
        "connection; duplicate in-flight requests coalesce into a\n"
        "single simulation whose response bytes fan out to every\n"
        "waiter. `gscalar submit --stats` reports live counters\n"
        "(uptime, requests, cache state, coalescing and admission\n"
        "tier, per-workload latency). SIGINT/SIGTERM drain in-flight\n"
        "requests, then exit.\n"
        "\n"
        "  --socket PATH        listen here (default $GS_SOCKET, else\n"
        "                       $XDG_RUNTIME_DIR/gscalard.sock, else\n"
        "                       /tmp/gscalard-<uid>.sock)\n"
        "  --tcp HOST:PORT      additionally listen on TCP (port 0\n"
        "                       binds an ephemeral port)\n"
        "  --timeout SEC        per-request engine budget (default\n"
        "                       600)\n"
        "  --idle-timeout SEC   close connections idle this long\n"
        "                       (default 300; <= 0 disables)\n"
        "  --max-connections N  shed further connections with an\n"
        "                       `overloaded` response (default 64;\n"
        "                       0 = unlimited)\n"
        "  --max-frame-bytes N  reject request frames above N bytes\n"
        "                       (default and ceiling 16 MiB)\n"
        "  --max-queued N       admission bound on queued flights\n"
        "                       (default 256; 0 = unbounded); overflow\n"
        "                       sheds the lowest priority band first\n"
        "  --service-threads N  threads bridging flights onto the\n"
        "                       engine (default: workers + 2)\n"
        "  --fault SPEC         inject deterministic faults\n"
        "                       (site:kind:rate[:seed], comma-\n"
        "                       separated; same as $GS_FAULT)\n"
        "  --jobs/-j N          worker pool size (or GS_JOBS=N)\n"
        "  --codec NAME         default RF compression codec\n"
        "                       (byte-mask, bdi, static-profile,\n"
        "                       rrcd; or GS_CODEC=NAME)\n"
        "  --cache              persist runs at $GS_CACHE_DIR or the\n"
        "                       default cache directory\n";
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    GscalarServer::Options sopt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&](const char *what) -> std::string {
            if (i + 1 >= argc)
                GS_FATAL(what, " needs a value");
            return argv[++i];
        };
        if (a == "--help" || a == "-h") {
            printUsage(std::cout);
            return 0;
        } else if (a == "--version" || a == "-V") {
            std::cout << "gscalard " << GS_VERSION << "\n";
            return 0;
        } else if (a == "--socket")
            sopt.socketPath = need("--socket");
        else if (a == "--tcp") {
            const std::string v = need("--tcp");
            std::string why;
            if (!parseConnectTarget(v, &why, /*allowPortZero=*/true))
                GS_FATAL("invalid --tcp value: ", why);
            sopt.tcpBind = v;
        } else if (a == "--timeout")
            sopt.requestTimeoutSec = std::stod(need("--timeout"));
        else if (a == "--idle-timeout")
            sopt.idleTimeoutSec = std::stod(need("--idle-timeout"));
        else if (a == "--max-connections")
            sopt.maxConnections =
                std::uint32_t(std::stoul(need("--max-connections")));
        else if (a == "--max-frame-bytes")
            sopt.maxFrameBytes =
                std::uint32_t(std::stoul(need("--max-frame-bytes")));
        else if (a == "--max-queued")
            sopt.maxQueuedFlights =
                std::uint32_t(std::stoul(need("--max-queued")));
        else if (a == "--service-threads")
            sopt.serviceThreads =
                unsigned(std::stoul(need("--service-threads")));
        else if (a == "--cache")
            setDefaultCacheEnabled(true);
        else if (a == "--codec") {
            const std::string v = need("--codec");
            const std::optional<CodecId> c = parseCodecId(v);
            if (!c)
                GS_FATAL("invalid --codec value '", v,
                         "' (want one of ", codecIdList(), ")");
            setDefaultCodecId(*c);
        } else if (a == "--fault" || a.rfind("--fault=", 0) == 0) {
            const std::string spec =
                a == "--fault" ? need("--fault") : a.substr(8);
            std::string ferr;
            if (!faultInjector().configure(spec, &ferr))
                GS_FATAL("--fault='", spec, "': ", ferr);
        } else if (a == "--jobs" || a == "-j") {
            const std::string v = need("--jobs");
            const std::optional<unsigned> jobs = parseJobsValue(v);
            if (!jobs)
                GS_FATAL("invalid ", a, " value '", v,
                         "' (want an integer in [1, 4096])");
            setDefaultJobs(*jobs);
        } else if (a == "--sim-threads") {
            need("--sim-threads");
            ignoreSimThreads(true);
        } else {
            printUsage(std::cerr);
            return 2;
        }
    }
    checkStartupEnv();
    // "gen:..." workload names resolve in the standalone daemon just
    // as they do in `gscalar serve`.
    registerGenWorkloads();

    GscalarServer server(defaultEngine(), sopt);
    std::string err;
    if (!server.installSignalHandlers(&err) || !server.start(&err)) {
        std::cerr << "gscalard: " << err << "\n";
        return 1;
    }
    std::cerr << "gscalard: listening on " << server.socketPath();
    if (server.tcpPort() != 0)
        std::cerr << " and tcp port " << server.tcpPort();
    std::cerr << " (" << defaultEngine().jobs()
              << " worker(s); Ctrl-C to drain and exit)\n";
    server.wait();
    std::cerr << "gscalard: served " << server.requestsServed()
              << " request(s)\n"
              << defaultEngine().statsSummary() << "\n";
    const std::string health = healthSummary();
    if (!health.empty())
        std::cerr << health << "\n";
    return 0;
}
