/**
 * @file
 * gscalard: standalone simulation daemon. Equivalent to
 * `gscalar serve` but as its own binary so deployments can ship the
 * service without the experiment drivers.
 *
 *   gscalard [--socket PATH] [--tcp HOST:PORT] [--timeout SEC]
 *            [--idle-timeout SEC] [--max-connections N]
 *            [--max-frame-bytes N] [--max-queued N]
 *            [--jobs N] [--codec NAME] [--cache] [--fault SPEC]
 */

#include <iostream>
#include <string>

#include "common/log.hpp"
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
        "                [--cache] [--fault SPEC]\n"
        "\n"
        "Serves simulation requests from gscalar submit /\n"
        "GscalarClient over a unix-domain socket (and optionally TCP),\n"
        "sharing one experiment engine (worker pool + run cache)\n"
        "across every client. One epoll reactor thread owns every\n"
        "connection and hands requests straight to the engine, where\n"
        "duplicate in-flight requests join a single simulation.\n"
        "`gscalar submit --stats` reports live counters\n"
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
        "                       600; 0 disables; at most 86400)\n"
        "  --idle-timeout SEC   close connections idle this long\n"
        "                       (default 300; 0 disables)\n"
        "  --max-connections N  shed further connections with an\n"
        "                       `overloaded` response (default 64;\n"
        "                       0 = unlimited)\n"
        "  --max-frame-bytes N  reject request frames above N bytes\n"
        "                       (default and ceiling 16 MiB)\n"
        "  --max-queued N       admission bound on queued runs\n"
        "                       (default 256; 0 = unbounded); overflow\n"
        "                       sheds the lowest priority band first\n"
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
    initHarness(argc, argv); // --jobs/--codec/--cache/--fault
    GscalarServer::Options sopt;
    int i = 1;
    if (const std::string err = parseServeFlags(argc, argv, i, sopt);
        !err.empty())
        GS_FATAL(err);
    if (i < argc) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            printUsage(std::cout);
            return 0;
        }
        if (a == "--version" || a == "-V") {
            std::cout << "gscalard " << GS_VERSION << "\n";
            return 0;
        }
        printUsage(std::cerr);
        return 2;
    }
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
