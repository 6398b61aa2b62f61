#include "config.hpp"

#include <concepts>
#include <type_traits>

#include "bit_utils.hpp"
#include "log.hpp"
#include "parse.hpp"
#include "table.hpp"

namespace gs
{

std::string
ArchConfig::check() const
{
    using detail::formatMsg;

    if (warpSize == 0 || warpSize > kMaxWarpSize)
        return formatMsg("warp size ", warpSize, " out of range [1, ",
                         kMaxWarpSize, "]");
    if (!isPow2(warpSize))
        return formatMsg("warp size must be a power of two, got ",
                         warpSize);
    if (simtWidth == 0 || simtWidth > warpSize)
        return formatMsg("SIMT width ", simtWidth,
                         " must be in [1, warp size]");
    if (checkGranularity == 0 || warpSize % checkGranularity != 0)
        return formatMsg("check granularity ", checkGranularity,
                         " must divide warp size ", warpSize);
    if (numBanks == 0 || numCollectors == 0 || numSchedulers == 0)
        return formatMsg("banks, collectors and schedulers must be "
                         "nonzero");
    if (numVregsPerSm % numBanks != 0)
        return formatMsg("vector registers (", numVregsPerSm,
                         ") must divide evenly over ", numBanks,
                         " banks");
    if (!isPow2(lineBytes) || lineBytes < kBytesPerWord)
        return formatMsg("cache line size must be a power-of-two >= 4");
    // 64-bit products: a 32-bit one can wrap to 0 on hostile sizes.
    if (l1Assoc == 0 || l1Bytes % (std::uint64_t(lineBytes) * l1Assoc) != 0)
        return formatMsg("L1 geometry does not divide into sets");
    if (l2Assoc == 0 || l2Bytes % (std::uint64_t(lineBytes) * l2Assoc) != 0)
        return formatMsg("L2 geometry does not divide into sets");
    if (memChannels == 0 ||
        l2Bytes / memChannels < std::uint64_t(lineBytes) * l2Assoc)
        return formatMsg("L2 needs at least one set per memory channel");
    if (scalarRfBanks == 0)
        return formatMsg("scalar RF needs at least one bank");
    if (sharedBanks == 0 || sharedBanks > kMaxWarpSize)
        return formatMsg("shared memory banks must be in [1, ",
                         kMaxWarpSize, "]");
    if (maxThreadsPerSm % warpSize != 0)
        return formatMsg("threads per SM must be a whole number of "
                         "warps");
    if (numSms == 0 || numAluPipes == 0 || sfuWidth == 0)
        return formatMsg("SMs, ALU pipes and SFU width must be nonzero");
    if (maxCycles == 0)
        return formatMsg("maxCycles watchdog must be nonzero");
    if (!(dramRequestsPerCycle > 0) || !(coreClockGhz > 0))
        return formatMsg("DRAM requests/cycle and core clock must be "
                         "positive");

    // Bounds pass: every integer and enum member within its table row.
    std::string err;
    forEachConfigField(*this, [&](const ConfigField &f, const auto &m) {
        using T = std::remove_cvref_t<decltype(m)>;
        if constexpr (!std::is_same_v<T, bool> &&
                      !std::is_floating_point_v<T>) {
            const std::uint64_t x = static_cast<std::uint64_t>(m);
            if (err.empty() && (x < f.lo || x > f.hi))
                err = formatMsg(f.name, " ", x, " out of range [", f.lo,
                                ", ", f.hi, "]");
        }
    });
    if (!err.empty())
        return err;

    // The bounded fields keep these products far from 64-bit overflow.
    const std::uint64_t warpSlots =
        std::uint64_t(numSms) * (maxThreadsPerSm / warpSize);
    if (warpSlots > kMaxGpuWarpSlots)
        return formatMsg("numSms x warp slots per SM = ", warpSlots,
                         " exceeds the per-request budget of ",
                         kMaxGpuWarpSlots);
    const std::uint64_t lines =
        std::uint64_t(numSms) * (l1Bytes / lineBytes) + l2Bytes / lineBytes;
    if (lines > kMaxGpuCacheLines)
        return formatMsg("numSms x L1 lines + L2 lines = ", lines,
                         " exceeds the per-request budget of ",
                         kMaxGpuCacheLines);
    return {};
}

void
ArchConfig::validate() const
{
    const std::string err = check();
    if (!err.empty())
        GS_FATAL(err);
}

namespace
{

/** FNV-1a over the raw bytes of a trivially-copyable value. */
template <typename T>
void
mixField(std::uint64_t &h, const T &v)
{
    unsigned char bytes[sizeof(T)];
    __builtin_memcpy(bytes, &v, sizeof(T));
    for (unsigned i = 0; i < sizeof(T); ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ull;
    }
}

} // namespace

std::uint64_t
ArchConfig::fingerprint() const
{
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV offset basis

    forEachConfigField(*this, [&h](const ConfigField &, const auto &m) {
        using T = std::remove_cvref_t<decltype(m)>;
        if constexpr (std::is_enum_v<T>)
            mixField(h, static_cast<std::uint32_t>(m));
        else
            mixField(h, m);
    });
    return h;
}

namespace
{

/** The knob parser for one member type; @p f gives its bounds. */
std::string
parseKnob(const ConfigField &f, std::string_view value,
          std::unsigned_integral auto &out)
{
    const std::optional<std::uint64_t> v = parseDecimal(value, f.lo, f.hi);
    if (v)
        out = std::remove_reference_t<decltype(out)>(*v);
    else if (f.hi == UINT64_MAX)
        return detail::formatMsg("'", value,
                                 "' wants a non-negative integer");
    else
        return detail::formatMsg("'", value, "' wants an integer in [",
                                 f.lo, ", ", f.hi, "]");
    return {};
}

std::string
parseKnob(const ConfigField &, std::string_view value, bool &out)
{
    if (value != "true" && value != "false")
        return detail::formatMsg("'", value, "' wants true or false");
    out = value == "true";
    return {};
}

std::string
parseKnob(const ConfigField &, std::string_view value, ArchMode &out)
{
    const std::optional<ArchMode> m = parseArchMode(value);
    if (!m)
        return detail::formatMsg("unknown mode '", value, "'");
    out = *m;
    return {};
}

std::string
parseKnob(const ConfigField &, std::string_view value, CodecId &out)
{
    const std::optional<CodecId> c = parseCodecId(value);
    if (!c)
        return detail::formatMsg("unknown codec '", value, "' (want ",
                                 codecIdList(), ")");
    out = *c;
    return {};
}

} // namespace

std::optional<std::string>
applyConfigKnob(ArchConfig &cfg, std::string_view knob,
                std::string_view value)
{
    std::optional<std::string> why;
    forEachConfigField(cfg, [&](const ConfigField &f, auto &m) {
        if constexpr (requires { parseKnob(f, value, m); })
            if (f.knob && knob == f.knob)
                why = parseKnob(f, value, m);
    });
    return why;
}

std::string
configKnobList()
{
    std::string out;
    ArchConfig cfg;
    forEachConfigField(cfg, [&out](const ConfigField &f, const auto &) {
        if (f.knob)
            out += (out.empty() ? "" : ", ") + std::string(f.knob);
    });
    return out;
}

std::string
ArchConfig::describe() const
{
    Table t("Simulator configuration (Table 1)");
    t.row({"parameter", "value"});
    t.row({"# of SMs", std::to_string(numSms)});
    t.row({"Registers per SM",
           std::to_string(numVregsPerSm * warpSize * kBytesPerWord / 1024) +
               "KB"});
    t.row({"SM frequency", Table::num(coreClockGhz, 1) + "GHz"});
    t.row({"Register file banks", std::to_string(numBanks)});
    t.row({"Operand collectors per SM", std::to_string(numCollectors)});
    t.row({"Warp size", std::to_string(warpSize)});
    t.row({"Schedulers per SM", std::to_string(numSchedulers)});
    t.row({"SIMT EXE width", std::to_string(simtWidth)});
    t.row({"L1$ per SM", std::to_string(l1Bytes / 1024) + "KB"});
    t.row({"Threads per SM", std::to_string(maxThreadsPerSm)});
    t.row({"Memory channels", std::to_string(memChannels)});
    t.row({"CTAs per SM", std::to_string(maxCtasPerSm)});
    t.row({"L2$ size", std::to_string(l2Bytes / 1024) + "KB"});
    t.row({"Mode", std::string(archModeName(mode))});
    return t.str();
}

} // namespace gs
