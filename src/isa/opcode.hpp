/**
 * @file
 * The mini SIMT instruction set used by all workloads. Opcode traits
 * (pipeline class, latency class, relative execution energy) drive both
 * the timing and the power model.
 */

#ifndef GSCALAR_ISA_OPCODE_HPP
#define GSCALAR_ISA_OPCODE_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/log.hpp"

namespace gs
{

/** Execution pipeline an instruction dispatches to (§2.1). */
enum class PipeClass : std::uint8_t
{
    ALU,  ///< 16-lane arithmetic/logic pipelines (2 per SM)
    SFU,  ///< 4-lane special-function pipeline
    MEM,  ///< 16-lane memory pipeline
    CTRL, ///< branches, barriers, exit (handled at issue)
};

/** Result-latency class, priced in cycles by ArchConfig. */
enum class LatClass : std::uint8_t
{
    Simple, ///< int add/logic/mov and fp add/mul
    Mul,    ///< integer multiply, fused multiply-add
    Div,    ///< microcoded integer divide/remainder
    Sfu,    ///< transcendental
    Mem,    ///< variable (cache hierarchy)
    Ctrl,   ///< no register result
};

/** All opcodes of the mini ISA. */
enum class Opcode : std::uint8_t
{
    // integer ALU
    IADD, ISUB, IMUL, IMAD, IDIV, IREM, IMIN, IMAX, IABS,
    AND, OR, XOR, NOT, SHL, SHR,
    // floating-point ALU
    FADD, FSUB, FMUL, FFMA, FMIN, FMAX, FABS, FNEG,
    // data movement / conversion
    MOV, SEL, I2F, F2I,
    // predicate-setting compares
    ISETP, FSETP,
    // special function (SFU pipeline)
    SIN, COS, EX2, LG2, RCP, RSQ, SQRT,
    // memory
    LDG, STG, LDS, STS,
    // control
    BRA, JMP, BAR, EXIT,
    // special registers
    S2R,
    // hardware-inserted decompress-in-place move (§3.3)
    SMOV,

    NumOpcodes,
};

/** Comparison operator for ISETP/FSETP and the builder's branches. */
enum class CmpOp : std::uint8_t
{
    EQ, NE, LT, LE, GT, GE,
};

/** Special registers readable via S2R. */
enum class SReg : std::uint8_t
{
    Tid,    ///< linear thread index within the CTA (per-lane value)
    CtaId,  ///< linear CTA index within the grid (warp-uniform)
    NTid,   ///< threads per CTA (grid-constant)
    NCtaId, ///< CTAs in the grid (grid-constant)
    LaneId, ///< lane index within the warp (per-lane value)
    WarpId, ///< warp index within the CTA (warp-uniform)
};

/** Static per-opcode properties. */
struct OpcodeTraits
{
    std::string_view name;
    PipeClass pipe;
    LatClass lat;
    /** Number of vector-register sources read. */
    std::uint8_t numSrcs;
    /** True when the op writes a vector destination register. */
    bool writesDst;
    /**
     * Dynamic execution energy per active lane in units of one FP32
     * operation (GPUWattch-style relative costs; SFU ops fall in the
     * paper's 3-24x band).
     */
    double energyUnits;
};

inline constexpr std::size_t kNumOpcodes =
    static_cast<std::size_t>(Opcode::NumOpcodes);

namespace detail
{

/**
 * Trait table. Energy units are relative to one FP32 add/multiply
 * (= 1.0), following GPUWattch's component cost ordering: simple
 * integer ops are cheaper, microcoded divide much more expensive, and
 * transcendentals land in the 3-24x band the paper cites for SFU ops.
 */
inline constexpr std::array<OpcodeTraits, kNumOpcodes> kOpcodeTraits = {{
    // name     pipe             lat               srcs dst   energy
    {"iadd",   PipeClass::ALU,  LatClass::Simple, 2, true,  0.6},
    {"isub",   PipeClass::ALU,  LatClass::Simple, 2, true,  0.6},
    {"imul",   PipeClass::ALU,  LatClass::Mul,    2, true,  1.4},
    {"imad",   PipeClass::ALU,  LatClass::Mul,    3, true,  1.8},
    {"idiv",   PipeClass::ALU,  LatClass::Div,    2, true,  8.0},
    {"irem",   PipeClass::ALU,  LatClass::Div,    2, true,  8.0},
    {"imin",   PipeClass::ALU,  LatClass::Simple, 2, true,  0.6},
    {"imax",   PipeClass::ALU,  LatClass::Simple, 2, true,  0.6},
    {"iabs",   PipeClass::ALU,  LatClass::Simple, 1, true,  0.5},
    {"and",    PipeClass::ALU,  LatClass::Simple, 2, true,  0.4},
    {"or",     PipeClass::ALU,  LatClass::Simple, 2, true,  0.4},
    {"xor",    PipeClass::ALU,  LatClass::Simple, 2, true,  0.4},
    {"not",    PipeClass::ALU,  LatClass::Simple, 1, true,  0.3},
    {"shl",    PipeClass::ALU,  LatClass::Simple, 2, true,  0.5},
    {"shr",    PipeClass::ALU,  LatClass::Simple, 2, true,  0.5},
    {"fadd",   PipeClass::ALU,  LatClass::Simple, 2, true,  1.0},
    {"fsub",   PipeClass::ALU,  LatClass::Simple, 2, true,  1.0},
    {"fmul",   PipeClass::ALU,  LatClass::Simple, 2, true,  1.0},
    {"ffma",   PipeClass::ALU,  LatClass::Mul,    3, true,  1.8},
    {"fmin",   PipeClass::ALU,  LatClass::Simple, 2, true,  0.8},
    {"fmax",   PipeClass::ALU,  LatClass::Simple, 2, true,  0.8},
    {"fabs",   PipeClass::ALU,  LatClass::Simple, 1, true,  0.4},
    {"fneg",   PipeClass::ALU,  LatClass::Simple, 1, true,  0.4},
    {"mov",    PipeClass::ALU,  LatClass::Simple, 1, true,  0.3},
    {"sel",    PipeClass::ALU,  LatClass::Simple, 2, true,  0.5},
    {"i2f",    PipeClass::ALU,  LatClass::Simple, 1, true,  0.8},
    {"f2i",    PipeClass::ALU,  LatClass::Simple, 1, true,  0.8},
    {"isetp",  PipeClass::ALU,  LatClass::Simple, 2, false, 0.5},
    {"fsetp",  PipeClass::ALU,  LatClass::Simple, 2, false, 0.6},
    {"sin",    PipeClass::SFU,  LatClass::Sfu,    1, true,  14.0},
    {"cos",    PipeClass::SFU,  LatClass::Sfu,    1, true,  14.0},
    {"ex2",    PipeClass::SFU,  LatClass::Sfu,    1, true,  9.0},
    {"lg2",    PipeClass::SFU,  LatClass::Sfu,    1, true,  9.0},
    {"rcp",    PipeClass::SFU,  LatClass::Sfu,    1, true,  6.0},
    {"rsq",    PipeClass::SFU,  LatClass::Sfu,    1, true,  7.0},
    {"sqrt",   PipeClass::SFU,  LatClass::Sfu,    1, true,  11.0},
    {"ldg",    PipeClass::MEM,  LatClass::Mem,    1, true,  0.5},
    {"stg",    PipeClass::MEM,  LatClass::Mem,    2, false, 0.5},
    {"lds",    PipeClass::MEM,  LatClass::Mem,    1, true,  0.4},
    {"sts",    PipeClass::MEM,  LatClass::Mem,    2, false, 0.4},
    {"bra",    PipeClass::CTRL, LatClass::Ctrl,   0, false, 0.3},
    {"jmp",    PipeClass::CTRL, LatClass::Ctrl,   0, false, 0.2},
    {"bar",    PipeClass::CTRL, LatClass::Ctrl,   0, false, 0.2},
    {"exit",   PipeClass::CTRL, LatClass::Ctrl,   0, false, 0.1},
    {"s2r",    PipeClass::ALU,  LatClass::Simple, 0, true,  0.3},
    {"smov",   PipeClass::ALU,  LatClass::Simple, 1, true,  0.3},
}};

} // namespace detail

/** Look up traits for @p op (a table load on the simulator's hot path). */
inline const OpcodeTraits &
traits(Opcode op)
{
    const auto idx = static_cast<std::size_t>(op);
    GS_ASSERT(idx < kNumOpcodes, "bad opcode ", idx);
    return detail::kOpcodeTraits[idx];
}

/** Short mnemonic. */
inline std::string_view opcodeName(Opcode op) { return traits(op).name; }

/** Mnemonic for a comparison operator. */
std::string_view cmpName(CmpOp c);

/** Mnemonic for a special register. */
std::string_view sregName(SReg s);

/** True for LDG/LDS (register-writing memory loads). */
inline bool
isLoad(Opcode op)
{
    return op == Opcode::LDG || op == Opcode::LDS;
}

/** True for STG/STS. */
inline bool
isStore(Opcode op)
{
    return op == Opcode::STG || op == Opcode::STS;
}

/** True for global-memory ops that traverse the cache hierarchy. */
inline bool
isGlobalMem(Opcode op)
{
    return op == Opcode::LDG || op == Opcode::STG;
}

} // namespace gs

#endif // GSCALAR_ISA_OPCODE_HPP
