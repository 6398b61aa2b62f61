/**
 * @file
 * Architecture configuration. Defaults reproduce Table 1 of the paper
 * (a GTX 480-like GPU as modelled by GPGPU-Sim 3.2.2).
 */

#ifndef GSCALAR_COMMON_CONFIG_HPP
#define GSCALAR_COMMON_CONFIG_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "arch_mode.hpp"
#include "codec_id.hpp"
#include "types.hpp"

namespace gs
{

/** Warp scheduler policy. */
enum class SchedPolicy
{
    LooseRoundRobin, ///< rotate priority every cycle
    GreedyThenOldest ///< keep issuing the same warp until it stalls
};

/**
 * Full simulator configuration: GPU organisation (Table 1), pipeline
 * latencies, cache geometry and the architecture mode under study.
 */
struct ArchConfig
{
    /** Architecture variant being simulated. */
    ArchMode mode = ArchMode::Baseline;

    // ---- GPU organisation (Table 1) -----------------------------------
    unsigned numSms = 15;          ///< streaming multiprocessors
    unsigned warpSize = 32;        ///< threads per warp (64 for Fig. 10)
    unsigned simtWidth = 16;       ///< lanes per ALU/MEM pipeline
    unsigned sfuWidth = 4;         ///< lanes of the special-function pipe
    unsigned numAluPipes = 2;      ///< ALU pipelines per SM
    unsigned maxThreadsPerSm = 1536;
    unsigned maxCtasPerSm = 8;
    unsigned numVregsPerSm = 1024; ///< 128 KB: 1024 x 32 x 4 B
    unsigned numBanks = 16;        ///< register file banks
    unsigned arraysPerBank = 8;    ///< 128-bit single-port SRAM arrays
    unsigned numCollectors = 16;   ///< operand collector units
    unsigned numSchedulers = 2;    ///< warp schedulers per SM
    SchedPolicy schedPolicy = SchedPolicy::GreedyThenOldest;

    // ---- compression / scalar micro-architecture ----------------------
    /**
     * Register-file compression codec for the compressed modes
     * (compress/codec.hpp registry). Defaults to the paper's byte-mask
     * scheme; entry points apply --codec/$GS_CODEC via defaultCodecId().
     */
    CodecId codec = CodecId::ByteMask;
    /** Lanes per scalar-check group (16 also for 64-wide warps). */
    unsigned checkGranularity = 16;
    /** Per-half enc/base registers (half-register compression, §3.2). */
    bool halfRegisterCompression = true;
    /** Banks of the prior-work scalar RF (1 in [3]; swept by ablation). */
    unsigned scalarRfBanks = 1;
    /**
     * Insert the special decompress-in-place move when a divergent
     * instruction writes a compressed register (§3.3, hardware-assisted).
     */
    bool insertSpecialMoves = true;
    /**
     * §3.3's compiler-assisted refinement: skip the special move when
     * static liveness proves the partially-overwritten value dead.
     */
    bool compilerAssistedSmov = false;
    /**
     * When true, a scalar-executed instruction occupies its pipeline
     * for a single dispatch cycle instead of warpSize/width cycles.
     * The paper's G-Scalar only clock-gates lanes (Fig. 11 shows a
     * small IPC *loss*), so this stays off by default; it models the
     * §6 observation that scalar execution could also shorten
     * multi-cycle dispatch, and is explored by an ablation bench.
     */
    bool scalarShortensOccupancy = false;

    // ---- pipeline latencies (cycles; Fermi dependent-issue depths) ------
    unsigned aluLatency = 14;      ///< simple int/fp result latency
    unsigned mulLatency = 18;      ///< integer multiply / FMA
    unsigned divLatency = 60;      ///< integer divide (microcoded)
    unsigned sfuLatency = 24;      ///< transcendental result latency

    // ---- memory system --------------------------------------------------
    unsigned lineBytes = 128;
    unsigned l1Bytes = 16 * 1024;
    unsigned l1Assoc = 4;
    unsigned l1Latency = 30;
    unsigned l1MshrEntries = 64;
    unsigned l2Bytes = 768 * 1024;
    unsigned l2Assoc = 8;
    unsigned l2Latency = 120;
    unsigned dramLatency = 250;
    unsigned memChannels = 6;
    /** Peak memory requests serviced per channel per core cycle. */
    double dramRequestsPerCycle = 0.5;
    unsigned sharedLatency = 24;
    /** Shared-memory banks (word-interleaved); conflicting accesses
     *  within a warp serialise. */
    unsigned sharedBanks = 32;

    // ---- clocks ----------------------------------------------------------
    double coreClockGhz = 1.4;

    // ---- simulation control ---------------------------------------------
    std::uint64_t maxCycles = 200'000'000; ///< watchdog
    std::uint64_t seed = 1;                ///< workload data seed

    // ---- derived ----------------------------------------------------------
    /** Warps needed for one CTA of @p cta_threads threads. */
    unsigned
    warpsPerCta(unsigned cta_threads) const
    {
        return (cta_threads + warpSize - 1) / warpSize;
    }

    /** Scalar-check groups per warp (2 for 32-wide, 4 for 64-wide). */
    unsigned
    groupsPerWarp() const
    {
        return (warpSize + checkGranularity - 1) / checkGranularity;
    }

    /** Extra pipeline depth for the configured mode. */
    unsigned extraCycles() const { return extraPipelineCycles(mode); }

    /** Dispatch cycles for a full warp on a pipeline of @p width lanes. */
    unsigned
    dispatchCycles(unsigned width) const
    {
        return (warpSize + width - 1) / width;
    }

    /** check()'s per-request state budget: numSms x warp slots per SM
     *  (maxThreadsPerSm / warpSize), and numSms x L1 lines + L2 lines.
     *  Table 1 at 4096 SMs fits both. */
    static constexpr std::uint64_t kMaxGpuWarpSlots = 1u << 18;
    static constexpr std::uint64_t kMaxGpuCacheLines = 1u << 21;

    /**
     * First internal-consistency error, or an empty string when the
     * configuration is valid. Non-fatal form of validate() for callers
     * (gscalard, deserializers) that must survive bad inputs.
     */
    std::string check() const;

    /** Validate internal consistency; calls GS_FATAL on bad configs. */
    void validate() const;

    /** Render Table 1 as an ASCII table. */
    std::string describe() const;

    /**
     * Stable content hash over every configuration field. Two configs
     * with the same fingerprint produce bit-identical simulations, so
     * the harness run cache keys on (workload, fingerprint()). The
     * value is stable within a build of the simulator but is not a
     * serialisation format — do not persist it across versions.
     */
    std::uint64_t fingerprint() const;
};

/** One ArchConfig member's row in forEachConfigField(). */
struct ConfigField
{
    /** Serial wire tag and fingerprint position: append-only, never
     *  renumbered or reused. */
    std::uint16_t tag;
    const char *name; ///< member name, for error messages
    const char *knob; ///< sweep/CLI knob name; nullptr when not a knob
    /** Inclusive bounds of an integer or enum member. */
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
};

/**
 * The ArchConfig field table: calls v(field, member) once per member,
 * in tag order. fingerprint(), check()'s bounds pass, the serial
 * encoding (store/serial.cpp) and applyConfigKnob() all read it, so a
 * new member takes one line here; the static_asserts below catch a
 * member that skips it. Size and count bounds come from the sweep knob
 * ranges where those exist, else allow 64x the Table 1 default.
 */
template <typename Cfg, typename V>
constexpr void
forEachConfigField(Cfg &c, V &&v)
{
    constexpr std::uint64_t kAny = UINT64_MAX;
    v(ConfigField{1, "mode", "mode", 0, kArchModes.size() - 1}, c.mode);
    v(ConfigField{2, "numSms", "sms", 1, 4096}, c.numSms);
    v(ConfigField{3, "warpSize", "warp", 1, 1024}, c.warpSize);
    v(ConfigField{4, "simtWidth", nullptr, 1, 1024}, c.simtWidth);
    v(ConfigField{5, "sfuWidth", nullptr, 1, 256}, c.sfuWidth);
    v(ConfigField{6, "numAluPipes", nullptr, 1, 128}, c.numAluPipes);
    v(ConfigField{7, "maxThreadsPerSm", nullptr, 1, 98304},
      c.maxThreadsPerSm);
    v(ConfigField{8, "maxCtasPerSm", nullptr, 1, 512}, c.maxCtasPerSm);
    v(ConfigField{9, "numVregsPerSm", nullptr, 1, 65536}, c.numVregsPerSm);
    v(ConfigField{10, "numBanks", nullptr, 1, 1024}, c.numBanks);
    v(ConfigField{11, "arraysPerBank", nullptr, 1, 512}, c.arraysPerBank);
    v(ConfigField{12, "numCollectors", nullptr, 1, 1024}, c.numCollectors);
    v(ConfigField{13, "numSchedulers", nullptr, 1, 128}, c.numSchedulers);
    v(ConfigField{14, "schedPolicy", nullptr, 0,
                  std::uint64_t(SchedPolicy::GreedyThenOldest)},
      c.schedPolicy);
    v(ConfigField{15, "checkGranularity", "check-granularity", 1, 1024},
      c.checkGranularity);
    v(ConfigField{16, "halfRegisterCompression", "half-reg", 0, 1},
      c.halfRegisterCompression);
    v(ConfigField{17, "scalarRfBanks", "scalar-banks", 1, 64},
      c.scalarRfBanks);
    v(ConfigField{18, "insertSpecialMoves", "smov", 0, 1},
      c.insertSpecialMoves);
    v(ConfigField{19, "compilerAssistedSmov", "compiler-smov", 0, 1},
      c.compilerAssistedSmov);
    v(ConfigField{20, "scalarShortensOccupancy", "scalar-occupancy", 0, 1},
      c.scalarShortensOccupancy);
    v(ConfigField{21, "aluLatency", nullptr, 0, 896}, c.aluLatency);
    v(ConfigField{22, "mulLatency", nullptr, 0, 1152}, c.mulLatency);
    v(ConfigField{23, "divLatency", nullptr, 0, 3840}, c.divLatency);
    v(ConfigField{24, "sfuLatency", nullptr, 0, 1536}, c.sfuLatency);
    v(ConfigField{25, "lineBytes", nullptr, 4, 8192}, c.lineBytes);
    v(ConfigField{26, "l1Bytes", nullptr, 1, 1u << 20}, c.l1Bytes);
    v(ConfigField{27, "l1Assoc", nullptr, 1, 256}, c.l1Assoc);
    v(ConfigField{28, "l1Latency", nullptr, 0, 1920}, c.l1Latency);
    v(ConfigField{29, "l1MshrEntries", nullptr, 1, 4096}, c.l1MshrEntries);
    v(ConfigField{30, "l2Bytes", nullptr, 1, 48u << 20}, c.l2Bytes);
    v(ConfigField{31, "l2Assoc", nullptr, 1, 512}, c.l2Assoc);
    v(ConfigField{32, "l2Latency", nullptr, 0, 7680}, c.l2Latency);
    v(ConfigField{33, "dramLatency", nullptr, 0, 16000}, c.dramLatency);
    v(ConfigField{34, "memChannels", nullptr, 1, 384}, c.memChannels);
    v(ConfigField{35, "dramRequestsPerCycle", nullptr},
      c.dramRequestsPerCycle);
    v(ConfigField{36, "sharedLatency", nullptr, 0, 1536}, c.sharedLatency);
    v(ConfigField{37, "sharedBanks", nullptr, 1, 2048}, c.sharedBanks);
    v(ConfigField{38, "coreClockGhz", nullptr}, c.coreClockGhz);
    v(ConfigField{39, "maxCycles", "max-cycles", 0, kAny}, c.maxCycles);
    v(ConfigField{40, "seed", "seed", 0, kAny}, c.seed);
    v(ConfigField{41, "codec", "codec", 0, kNumCodecs - 1}, c.codec);
}

/** Rows in the field table; 0 when the tags do not run 1, 2, 3, ... */
inline constexpr unsigned kNumConfigFields = [] {
    ArchConfig c{};
    unsigned n = 0;
    bool dense = true;
    forEachConfigField(c, [&](const ConfigField &f, const auto &) {
        dense = dense && f.tag == ++n;
    });
    return dense ? n : 0;
}();

static_assert(kNumConfigFields == 41,
              "forEachConfigField tags must run 1..N with no gap");
static_assert(sizeof(ArchConfig) == 176,
              "ArchConfig changed: give the new member a row in "
              "forEachConfigField (next tag), then update this size");

/**
 * Parse @p value into the member whose knob name is @p knob (the sweep
 * manifest's and the CLI's config knobs), with that row's bounds.
 * Returns an empty string on success, else why @p value is bad; empty
 * optional when no member carries @p knob.
 */
std::optional<std::string> applyConfigKnob(ArchConfig &cfg,
                                           std::string_view knob,
                                           std::string_view value);

/** Comma-separated knob names in table order (error messages). */
std::string configKnobList();

} // namespace gs

#endif // GSCALAR_COMMON_CONFIG_HPP
