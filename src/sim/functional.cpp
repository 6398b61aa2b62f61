#include "functional.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/bit_utils.hpp"
#include "common/log.hpp"

namespace gs
{

bool
sregIsUniform(SReg s)
{
    switch (s) {
      case SReg::Tid:
      case SReg::LaneId:
        return false;
      case SReg::CtaId:
      case SReg::NTid:
      case SReg::NCtaId:
      case SReg::WarpId:
        return true;
    }
    return false;
}

namespace
{

float
asFloat(Word w)
{
    return std::bit_cast<float>(w);
}

Word
asWord(float f)
{
    return std::bit_cast<Word>(f);
}

std::int32_t
asInt(Word w)
{
    return static_cast<std::int32_t>(w);
}

/** |a| of a signed word; INT32_MIN maps to itself, as on hardware. */
Word
absWord(Word a)
{
    return asInt(a) < 0 ? Word(0) - a : a;
}

/** Integer comparison. */
bool
cmpInt(CmpOp c, std::int32_t a, std::int32_t b)
{
    switch (c) {
      case CmpOp::EQ: return a == b;
      case CmpOp::NE: return a != b;
      case CmpOp::LT: return a < b;
      case CmpOp::LE: return a <= b;
      case CmpOp::GT: return a > b;
      case CmpOp::GE: return a >= b;
    }
    return false;
}

bool
cmpFloat(CmpOp c, float a, float b)
{
    switch (c) {
      case CmpOp::EQ: return a == b;
      case CmpOp::NE: return a != b;
      case CmpOp::LT: return a < b;
      case CmpOp::LE: return a <= b;
      case CmpOp::GT: return a > b;
      case CmpOp::GE: return a >= b;
    }
    return false;
}

/** One lane of a generic ALU/SFU op; a template so each instantiation
 *  folds its switch away. */
template <Opcode Op>
Word
aluOp(Word a, Word b, Word c)
{
    switch (Op) {
      // Two's-complement wrap-around, computed unsigned (no UB).
      case Opcode::IADD: return a + b;
      case Opcode::ISUB: return a - b;
      case Opcode::IMUL: return a * b;
      case Opcode::IMAD: return a * b + c;
      case Opcode::IDIV:
        if (b == 0 || (asInt(a) == INT32_MIN && asInt(b) == -1))
            return b == 0 ? 0 : a;
        return Word(asInt(a) / asInt(b));
      case Opcode::IREM:
        if (b == 0 || (asInt(a) == INT32_MIN && asInt(b) == -1))
            return 0;
        return Word(asInt(a) % asInt(b));
      case Opcode::IMIN: return Word(std::min(asInt(a), asInt(b)));
      case Opcode::IMAX: return Word(std::max(asInt(a), asInt(b)));
      case Opcode::IABS: return absWord(a);
      case Opcode::AND: return a & b;
      case Opcode::OR: return a | b;
      case Opcode::XOR: return a ^ b;
      case Opcode::NOT: return ~a;
      case Opcode::SHL: return a << (b & 31);
      case Opcode::SHR: return a >> (b & 31);
      case Opcode::FADD: return asWord(asFloat(a) + asFloat(b));
      case Opcode::FSUB: return asWord(asFloat(a) - asFloat(b));
      case Opcode::FMUL: return asWord(asFloat(a) * asFloat(b));
      case Opcode::FFMA:
        return asWord(asFloat(a) * asFloat(b) + asFloat(c));
      case Opcode::FMIN: return asWord(std::fmin(asFloat(a), asFloat(b)));
      case Opcode::FMAX: return asWord(std::fmax(asFloat(a), asFloat(b)));
      case Opcode::FABS: return asWord(std::fabs(asFloat(a)));
      case Opcode::FNEG: return asWord(-asFloat(a));
      case Opcode::MOV: return a;
      case Opcode::I2F: return asWord(float(asInt(a)));
      case Opcode::F2I: {
        const float f = asFloat(a);
        // Saturating conversion; NaN maps to 0 (CUDA cvt semantics).
        if (!(f == f))
            return 0;
        if (f >= 2147483648.0f)
            return Word(INT32_MAX);
        if (f <= -2147483904.0f)
            return Word(INT32_MIN);
        return Word(std::int32_t(f));
      }
      case Opcode::SIN: return asWord(std::sin(asFloat(a)));
      case Opcode::COS: return asWord(std::cos(asFloat(a)));
      case Opcode::EX2: return asWord(std::exp2(asFloat(a)));
      case Opcode::LG2:
        return asWord(asFloat(a) > 0 ? std::log2(asFloat(a)) : 0.0f);
      case Opcode::RCP:
        return asWord(asFloat(a) == 0 ? 0.0f : 1.0f / asFloat(a));
      case Opcode::RSQ:
        return asWord(asFloat(a) > 0 ? 1.0f / std::sqrt(asFloat(a))
                                     : 0.0f);
      case Opcode::SQRT:
        return asWord(asFloat(a) >= 0 ? std::sqrt(asFloat(a)) : 0.0f);
      default:
        GS_PANIC("aluOp on non-ALU opcode ", opcodeName(Op));
    }
}

/** One source operand across the lanes: lane l reads p[l * step]. An
 *  immediate or an absent operand is a single word with step 0. */
struct OperandRow
{
    const Word *p;
    std::size_t step;

    Word at(unsigned lane) const { return p[lane * step]; }
};

constexpr Word kZero = 0;
constexpr OperandRow kZeroRow{&kZero, 0};

/** Source @p operand of @p inst, with hasImm replacing source 1. */
OperandRow
operandRow(const WarpState &warp, const Instruction &inst, unsigned operand)
{
    if (operand == 1 && inst.hasImm)
        return {&inst.imm, 0};
    return {warp.regValues(inst.src[operand]).data(), 1};
}

struct AluOperands
{
    OperandRow a, b, c;
};

/** aluOp<Op> over every lane of @p mask: the opcode switch runs once,
 *  outside the lane loop. */
template <Opcode Op>
void
aluLanes(const AluOperands &o, LaneMask mask, ExecResult &r)
{
    if ((mask & (mask + 1)) == 0) {
        // Contiguous low lanes (every non-divergent write): a plain
        // counted loop.
        const unsigned lanes = unsigned(std::countr_one(mask));
        for (unsigned lane = 0; lane < lanes; ++lane)
            r.dst[lane] =
                aluOp<Op>(o.a.at(lane), o.b.at(lane), o.c.at(lane));
        return;
    }
    for (LaneMask m = mask; m != 0; m &= m - 1) {
        const unsigned lane = firstLane(m);
        r.dst[lane] = aluOp<Op>(o.a.at(lane), o.b.at(lane), o.c.at(lane));
    }
}

Word
sregValue(SReg s, unsigned lane, const SregContext &ctx)
{
    switch (s) {
      case SReg::Tid: return ctx.threadBase + lane;
      case SReg::CtaId: return ctx.ctaId;
      case SReg::NTid: return ctx.nTid;
      case SReg::NCtaId: return ctx.nCtaId;
      case SReg::LaneId: return lane;
      case SReg::WarpId: return ctx.warpId;
    }
    return 0;
}

} // namespace

ExecResult
executeFunctional(const Instruction &inst, WarpState &warp, LaneMask mask,
                  const SregContext &ctx, GmemTxn &gmem,
                  std::span<Word> shared)
{
    ExecResult r;
    const unsigned ws = warp.warpSize();

    auto srcVal = [&](unsigned operand, unsigned lane) -> Word {
        if (operand == 1 && inst.hasImm)
            return inst.imm;
        return warp.regValues(inst.src[operand])[lane];
    };

    switch (inst.op) {
      case Opcode::S2R: {
        for (unsigned lane = 0; lane < ws; ++lane)
            if (mask & (LaneMask{1} << lane))
                r.dst[lane] = sregValue(inst.sreg, lane, ctx);
        r.writeMask = mask;
        break;
      }
      case Opcode::ISETP:
      case Opcode::FSETP: {
        const bool isFloat = inst.op == Opcode::FSETP;
        for (unsigned lane = 0; lane < ws; ++lane) {
            if (!(mask & (LaneMask{1} << lane)))
                continue;
            const Word a = srcVal(0, lane);
            const Word b = srcVal(1, lane);
            const bool t = isFloat
                               ? cmpFloat(inst.cmp, asFloat(a), asFloat(b))
                               : cmpInt(inst.cmp, asInt(a), asInt(b));
            if (t)
                r.predTrue |= LaneMask{1} << lane;
        }
        warp.setPred(inst.pdst, r.predTrue, mask);
        break;
      }
      case Opcode::SEL: {
        const LaneMask p = warp.pred(inst.psrc);
        for (unsigned lane = 0; lane < ws; ++lane) {
            if (!(mask & (LaneMask{1} << lane)))
                continue;
            r.dst[lane] = (p & (LaneMask{1} << lane)) ? srcVal(0, lane)
                                                      : srcVal(1, lane);
        }
        r.writeMask = mask;
        break;
      }
      case Opcode::LDG:
      case Opcode::LDS: {
        for (unsigned lane = 0; lane < ws; ++lane) {
            if (!(mask & (LaneMask{1} << lane)))
                continue;
            const Addr a = Addr(srcVal(0, lane)) + inst.imm;
            r.addrs[lane] = a;
            if (inst.op == Opcode::LDG) {
                r.dst[lane] = gmem.readWord(a & ~Addr{3});
            } else {
                const std::size_t w = (a / kBytesPerWord) %
                    std::max<std::size_t>(shared.size(), 1);
                r.dst[lane] = shared.empty() ? 0 : shared[w];
            }
        }
        r.writeMask = mask;
        break;
      }
      case Opcode::STG:
      case Opcode::STS: {
        for (unsigned lane = 0; lane < ws; ++lane) {
            if (!(mask & (LaneMask{1} << lane)))
                continue;
            const Addr a = Addr(srcVal(0, lane)) + inst.imm;
            const Word v = warp.regValues(inst.src[1])[lane];
            r.addrs[lane] = a;
            if (inst.op == Opcode::STG) {
                gmem.writeWord(a & ~Addr{3}, v);
            } else if (!shared.empty()) {
                shared[(a / kBytesPerWord) % shared.size()] = v;
            }
        }
        break;
      }
      case Opcode::SMOV: {
        // Decompress-in-place: rewrite the full register, ignoring the
        // active mask (§3.3).
        const auto cur = warp.regValues(inst.dst);
        for (unsigned lane = 0; lane < ws; ++lane)
            r.dst[lane] = cur[lane];
        r.writeMask = warp.fullMask();
        break;
      }
      case Opcode::MOV: {
        for (unsigned lane = 0; lane < ws; ++lane) {
            if (!(mask & (LaneMask{1} << lane)))
                continue;
            r.dst[lane] = inst.hasImm ? inst.imm : srcVal(0, lane);
        }
        r.writeMask = mask;
        break;
      }
      case Opcode::BRA:
      case Opcode::JMP:
      case Opcode::BAR:
      case Opcode::EXIT:
        GS_PANIC("control instruction in functional unit");
      default: {
        // Generic 1-3 source ALU/SFU operation.
        if (mask == 0) {
            r.writeMask = 0;
            break;
        }
        const unsigned nsrc = traits(inst.op).numSrcs;
        const AluOperands ops{
            operandRow(warp, inst, 0),
            nsrc >= 2 ? operandRow(warp, inst, 1) : kZeroRow,
            nsrc >= 3 ? OperandRow{warp.regValues(inst.src[2]).data(), 1}
                      : kZeroRow};
        switch (inst.op) {
#define GS_ALU_CASE(OP)                                                      \
          case Opcode::OP:                                                   \
            aluLanes<Opcode::OP>(ops, mask & laneMaskLow(ws), r);            \
            break;
          GS_ALU_CASE(IADD) GS_ALU_CASE(ISUB) GS_ALU_CASE(IMUL)
          GS_ALU_CASE(IMAD) GS_ALU_CASE(IDIV) GS_ALU_CASE(IREM)
          GS_ALU_CASE(IMIN) GS_ALU_CASE(IMAX) GS_ALU_CASE(IABS)
          GS_ALU_CASE(AND) GS_ALU_CASE(OR) GS_ALU_CASE(XOR)
          GS_ALU_CASE(NOT) GS_ALU_CASE(SHL) GS_ALU_CASE(SHR)
          GS_ALU_CASE(FADD) GS_ALU_CASE(FSUB) GS_ALU_CASE(FMUL)
          GS_ALU_CASE(FFMA) GS_ALU_CASE(FMIN) GS_ALU_CASE(FMAX)
          GS_ALU_CASE(FABS) GS_ALU_CASE(FNEG) GS_ALU_CASE(I2F)
          GS_ALU_CASE(F2I) GS_ALU_CASE(SIN) GS_ALU_CASE(COS)
          GS_ALU_CASE(EX2) GS_ALU_CASE(LG2) GS_ALU_CASE(RCP)
          GS_ALU_CASE(RSQ) GS_ALU_CASE(SQRT)
#undef GS_ALU_CASE
          default:
            GS_PANIC("aluOp on non-ALU opcode ", opcodeName(inst.op));
        }
        r.writeMask = mask;
        break;
      }
    }
    return r;
}

} // namespace gs
