#include "jsonl_tracer.hpp"

#include <cstdlib>
#include <sstream>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "result.hpp"

namespace gs
{

std::optional<TraceSpec>
parseTraceSpec(const std::string &spec)
{
    if (spec.empty())
        return std::nullopt;
    TraceSpec out;
    const auto colon = spec.rfind(":1/");
    if (colon == std::string::npos) {
        out.path = spec;
        return out;
    }
    out.path = spec.substr(0, colon);
    const std::string divisor = spec.substr(colon + 3);
    const std::optional<std::uint64_t> n = parseDecimal(divisor, 1);
    if (out.path.empty() || !n)
        return std::nullopt;
    out.sampleN = *n;
    return out;
}

JsonlTracer::JsonlTracer(std::ostream &os, std::uint64_t sampleN)
    : os_(os), sampleN_(sampleN ? sampleN : 1)
{}

void
JsonlTracer::writeLine(const std::string &line)
{
    std::lock_guard<std::mutex> lock(mutex_);
    os_ << line << "\n";
    lines_.fetch_add(1, std::memory_order_relaxed);
}

void
JsonlTracer::onIssue(const IssueEvent &e)
{
    const auto seq = issueSeen_.fetch_add(1, std::memory_order_relaxed);
    if (seq % sampleN_ != 0)
        return;
    std::ostringstream os;
    os << "{\"ev\": \"issue\", \"sm\": " << e.smId
       << ", \"warp\": " << e.warp << ", \"cycle\": " << e.cycle
       << ", \"pc\": " << e.pc << ", \"op\": \""
       << (e.inst ? opcodeName(e.inst->op) : "?") << "\", \"mask\": "
       << (e.mask & 0xffffffffull) << ", \"tier\": \""
       << tierName(e.tier) << "\", \"scalar\": "
       << (e.execScalar ? "true" : "false") << ", \"smov\": "
       << (e.isSpecialMove ? "true" : "false") << "}";
    writeLine(os.str());
}

void
JsonlTracer::onCtaLaunch(unsigned sm_id, unsigned cta_id, Cycle now)
{
    std::ostringstream os;
    os << "{\"ev\": \"cta_launch\", \"sm\": " << sm_id
       << ", \"cta\": " << cta_id << ", \"cycle\": " << now << "}";
    writeLine(os.str());
}

void
JsonlTracer::onCtaRetire(unsigned sm_id, unsigned cta_id, Cycle now)
{
    std::ostringstream os;
    os << "{\"ev\": \"cta_retire\", \"sm\": " << sm_id
       << ", \"cta\": " << cta_id << ", \"cycle\": " << now << "}";
    writeLine(os.str());
}

void
JsonlTracer::onRunBegin(const std::string &workload, ArchMode mode)
{
    std::ostringstream os;
    os << "{\"ev\": \"run_begin\", \"workload\": \""
       << jsonEscape(workload) << "\", \"mode\": \""
       << archModeName(mode) << "\"}";
    writeLine(os.str());
}

void
JsonlTracer::onRunEnd(const std::string &workload)
{
    std::ostringstream os;
    os << "{\"ev\": \"run_end\", \"workload\": \""
       << jsonEscape(workload) << "\"}";
    writeLine(os.str());
}

namespace
{

/** File-backed singleton behind envTracer(). */
struct EnvTracerState
{
    std::ofstream file;
    std::unique_ptr<JsonlTracer> tracer;

    EnvTracerState()
    {
        const char *spec = std::getenv("GS_TRACE");
        if (!spec || !*spec)
            return;
        const auto parsed = parseTraceSpec(spec);
        if (!parsed) {
            GS_WARN("ignoring malformed GS_TRACE spec '", spec,
                    "' (expected path or path:1/N)");
            return;
        }
        file.open(parsed->path, std::ios::out | std::ios::trunc);
        if (!file) {
            GS_WARN("GS_TRACE: cannot open '", parsed->path,
                    "' for writing; tracing disabled");
            return;
        }
        tracer =
            std::make_unique<JsonlTracer>(file, parsed->sampleN);
    }
};

} // namespace

JsonlTracer *
envTracer()
{
    static EnvTracerState state;
    return state.tracer.get();
}

} // namespace gs
