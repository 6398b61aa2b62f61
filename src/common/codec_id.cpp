#include "codec_id.hpp"

#include <atomic>
#include <cstdlib>

#include "log.hpp"

namespace gs
{

namespace
{

struct CodecName
{
    CodecId id;
    const char *name;
};

constexpr CodecName kCodecNames[] = {
    {CodecId::ByteMask, "byte-mask"},
    {CodecId::Bdi, "bdi"},
    {CodecId::StaticProfile, "static-profile"},
    {CodecId::Rrcd, "rrcd"},
};

static_assert(sizeof(kCodecNames) / sizeof(kCodecNames[0]) == kNumCodecs,
              "kCodecNames is out of sync with CodecId");

constexpr int kNoOverride = -1;

std::atomic<int> g_override{kNoOverride};

/** Resolve $GS_CODEC once; the environment cannot change. */
CodecId
resolveEnv()
{
    if (const char *env = std::getenv("GS_CODEC")) {
        const std::optional<CodecId> v = parseCodecId(env);
        if (!v)
            GS_FATAL("GS_CODEC='", env,
                     "' is not a registered codec (want ",
                     codecIdList(), ")");
        return *v;
    }
    return CodecId::ByteMask;
}

} // namespace

const char *
codecIdName(CodecId id)
{
    for (const CodecName &cn : kCodecNames)
        if (cn.id == id)
            return cn.name;
    return "?";
}

std::optional<CodecId>
parseCodecId(std::string_view name)
{
    for (const CodecName &cn : kCodecNames)
        if (name == cn.name)
            return cn.id;
    return std::nullopt;
}

std::string
codecIdList()
{
    std::string out;
    for (const CodecName &cn : kCodecNames) {
        if (!out.empty())
            out += ", ";
        out += cn.name;
    }
    return out;
}

CodecId
defaultCodecId()
{
    // Resolve $GS_CODEC even under an override, so a bad value is
    // fatal whether or not a --codec flag came first.
    static const CodecId resolved = resolveEnv();
    const int ov = g_override.load(std::memory_order_relaxed);
    return ov != kNoOverride ? CodecId(ov) : resolved;
}

void
setDefaultCodecId(CodecId id)
{
    g_override.store(int(id), std::memory_order_relaxed);
}

void
clearDefaultCodecIdOverride()
{
    g_override.store(kNoOverride, std::memory_order_relaxed);
}

} // namespace gs
