/**
 * @file
 * Architecture modes evaluated in the paper: the baseline GPU, the
 * prior-work scalar and compression architectures, and the G-Scalar
 * variants (Figs. 11 and 12).
 */

#ifndef GSCALAR_COMMON_ARCH_MODE_HPP
#define GSCALAR_COMMON_ARCH_MODE_HPP

#include <array>
#include <optional>
#include <string_view>

namespace gs
{

/**
 * Which micro-architecture a simulation models. A single run uses one
 * mode; the classification figures (1, 8, 9, 10) are mode-independent
 * because cross-lane value metadata is tracked canonically in every
 * run.
 */
enum class ArchMode
{
    /** Unmodified GTX 480-like GPU: no compression, no scalar exec. */
    Baseline,

    /**
     * Prior scalar architecture [Gilani et al., HPCA'13]: detected
     * non-divergent ALU scalar instructions use a separate single-bank
     * scalar register file and one execution lane.
     */
    AluScalar,

    /**
     * Prior register compression [Lee et al., ISCA'15]: BDI-based
     * register value compression, no scalar execution. Fig. 12's "W-C".
     */
    WarpedCompression,

    /** Our byte-mask register compression only (Fig. 12 "ours"). */
    GScalarCompressOnly,

    /**
     * G-Scalar without divergent/half-warp support: compression plus
     * full-warp scalar execution on ALU, SFU and MEM pipelines.
     */
    GScalarNoDiv,

    /** Full G-Scalar: adds half-warp and divergent scalar execution. */
    GScalarFull,
};

/** Short human-readable mode name for reports. */
constexpr std::string_view
archModeName(ArchMode m)
{
    switch (m) {
      case ArchMode::Baseline: return "baseline";
      case ArchMode::AluScalar: return "alu-scalar";
      case ArchMode::WarpedCompression: return "warped-compression";
      case ArchMode::GScalarCompressOnly: return "gscalar-compress";
      case ArchMode::GScalarNoDiv: return "gscalar-nodiv";
      case ArchMode::GScalarFull: return "gscalar";
    }
    return "?";
}

/** Every mode, in enum order: kArchModes[i] == ArchMode(i). */
inline constexpr std::array kArchModes = {
    ArchMode::Baseline,           ArchMode::AluScalar,
    ArchMode::WarpedCompression,  ArchMode::GScalarCompressOnly,
    ArchMode::GScalarNoDiv,       ArchMode::GScalarFull};

static_assert(kArchModes.back() == ArchMode(kArchModes.size() - 1),
              "kArchModes must list every ArchMode in enum order");

/** The mode archModeName() spells @p name; empty when none does. */
constexpr std::optional<ArchMode>
parseArchMode(std::string_view name)
{
    for (const ArchMode m : kArchModes)
        if (name == archModeName(m))
            return m;
    return std::nullopt;
}

/** True when the mode stores registers in our byte-mask compressed form. */
constexpr bool
usesByteMaskCompression(ArchMode m)
{
    return m == ArchMode::GScalarCompressOnly ||
           m == ArchMode::GScalarNoDiv || m == ArchMode::GScalarFull;
}

/** True when the mode stores registers in BDI compressed form. */
constexpr bool
usesBdiCompression(ArchMode m)
{
    return m == ArchMode::WarpedCompression;
}

/** True when non-divergent full-warp ALU scalar execution is exploited. */
constexpr bool
exploitsAluScalar(ArchMode m)
{
    return m == ArchMode::AluScalar || m == ArchMode::GScalarNoDiv ||
           m == ArchMode::GScalarFull;
}

/** True when SFU and memory instructions may also execute scalar. */
constexpr bool
exploitsSfuMemScalar(ArchMode m)
{
    return m == ArchMode::GScalarNoDiv || m == ArchMode::GScalarFull;
}

/** True when half-warp scalar execution is exploited. */
constexpr bool
exploitsHalfScalar(ArchMode m)
{
    return m == ArchMode::GScalarFull;
}

/** True when divergent scalar execution is exploited. */
constexpr bool
exploitsDivergentScalar(ArchMode m)
{
    return m == ArchMode::GScalarFull;
}

/**
 * Extra pipeline depth in cycles relative to the baseline (§5.1): one
 * cycle each for reading the encoding bits before the RF, decompressing
 * a value, and compressing the write-back value. The BDI architecture
 * pays an equivalent pack/unpack latency.
 */
constexpr unsigned
extraPipelineCycles(ArchMode m)
{
    return (usesByteMaskCompression(m) || usesBdiCompression(m)) ? 3 : 0;
}

/**
 * True for the prior-work scalar architecture whose scalar values live
 * in a single-bank scalar RF (the §4.1 bottleneck).
 */
constexpr bool
usesSingleBankScalarRf(ArchMode m)
{
    return m == ArchMode::AluScalar;
}

} // namespace gs

#endif // GSCALAR_COMMON_ARCH_MODE_HPP
