#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "isa/kernel_builder.hpp"
#include "sim/functional.hpp"
#include "sim/gpu.hpp"
#include "sim/reference.hpp"

namespace gs
{
namespace
{

class FunctionalTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        warp.init(/*regs=*/8, /*preds=*/2, /*warp=*/8, /*lanes=*/8);
        ctx.ctaId = 3;
        ctx.nTid = 64;
        ctx.nCtaId = 10;
        ctx.warpId = 1;
        ctx.threadBase = 8;
        shared.assign(16, 0);
    }

    void
    setReg(RegIdx r, std::initializer_list<Word> vals)
    {
        auto span = warp.regValues(r);
        unsigned i = 0;
        for (const Word v : vals)
            span[i++] = v;
    }

    Word
    runOne(const Instruction &inst, unsigned lane = 0,
           LaneMask mask = 0xff)
    {
        const auto r =
            executeFunctional(inst, warp, mask, ctx, gmem,
                              std::span<Word>(shared));
        return r.dst[lane];
    }

    WarpState warp;
    SregContext ctx;
    GlobalMemory gmem;
    std::vector<Word> shared;
};

Instruction
op2(Opcode o, RegIdx d, RegIdx a, RegIdx b)
{
    Instruction i;
    i.op = o;
    i.dst = d;
    i.src[0] = a;
    i.src[1] = b;
    return i;
}

TEST_F(FunctionalTest, IntegerArithmetic)
{
    setReg(0, {10, 20, 0x80000000});
    setReg(1, {3, 7, 1});
    EXPECT_EQ(runOne(op2(Opcode::IADD, 2, 0, 1)), 13u);
    EXPECT_EQ(runOne(op2(Opcode::ISUB, 2, 0, 1)), 7u);
    EXPECT_EQ(runOne(op2(Opcode::IMUL, 2, 0, 1)), 30u);
    EXPECT_EQ(runOne(op2(Opcode::IMIN, 2, 0, 1)), 3u);
    EXPECT_EQ(runOne(op2(Opcode::IMAX, 2, 0, 1)), 10u);
    EXPECT_EQ(runOne(op2(Opcode::IDIV, 2, 0, 1)), 3u);
    EXPECT_EQ(runOne(op2(Opcode::IREM, 2, 0, 1)), 1u);
}

TEST_F(FunctionalTest, DivideEdgeCases)
{
    setReg(0, {100, Word(INT32_MIN)});
    setReg(1, {0, Word(-1)});
    const auto r = executeFunctional(op2(Opcode::IDIV, 2, 0, 1), warp,
                                     0b11, ctx, gmem, {});
    EXPECT_EQ(r.dst[0], 0u);                 // divide by zero -> 0
    EXPECT_EQ(r.dst[1], Word(INT32_MIN));    // INT_MIN / -1 saturates
}

TEST_F(FunctionalTest, Logic)
{
    setReg(0, {0b1100});
    setReg(1, {0b1010});
    EXPECT_EQ(runOne(op2(Opcode::AND, 2, 0, 1)), 0b1000u);
    EXPECT_EQ(runOne(op2(Opcode::OR, 2, 0, 1)), 0b1110u);
    EXPECT_EQ(runOne(op2(Opcode::XOR, 2, 0, 1)), 0b0110u);
    EXPECT_EQ(runOne(op2(Opcode::SHL, 2, 0, 1)) , 0b1100u << 10);
}

TEST_F(FunctionalTest, FloatArithmetic)
{
    setReg(0, {std::bit_cast<Word>(1.5f)});
    setReg(1, {std::bit_cast<Word>(2.0f)});
    EXPECT_FLOAT_EQ(std::bit_cast<float>(runOne(op2(Opcode::FADD, 2, 0, 1))),
                    3.5f);
    EXPECT_FLOAT_EQ(std::bit_cast<float>(runOne(op2(Opcode::FMUL, 2, 0, 1))),
                    3.0f);

    Instruction ffma = op2(Opcode::FFMA, 3, 0, 1);
    ffma.src[2] = 1;
    EXPECT_FLOAT_EQ(std::bit_cast<float>(runOne(ffma)), 5.0f);
}

TEST_F(FunctionalTest, SpecialFunctions)
{
    setReg(0, {std::bit_cast<Word>(4.0f)});
    Instruction i;
    i.op = Opcode::SQRT;
    i.dst = 1;
    i.src[0] = 0;
    EXPECT_FLOAT_EQ(std::bit_cast<float>(runOne(i)), 2.0f);
    i.op = Opcode::RCP;
    EXPECT_FLOAT_EQ(std::bit_cast<float>(runOne(i)), 0.25f);
    i.op = Opcode::EX2;
    EXPECT_FLOAT_EQ(std::bit_cast<float>(runOne(i)), 16.0f);
    i.op = Opcode::LG2;
    EXPECT_FLOAT_EQ(std::bit_cast<float>(runOne(i)), 2.0f);
    i.op = Opcode::RSQ;
    EXPECT_FLOAT_EQ(std::bit_cast<float>(runOne(i)), 0.5f);
}

TEST_F(FunctionalTest, SaturatingF2I)
{
    setReg(0, {std::bit_cast<Word>(3.9f), std::bit_cast<Word>(-2.5f),
               std::bit_cast<Word>(1e20f),
               std::bit_cast<Word>(std::nanf(""))});
    Instruction i;
    i.op = Opcode::F2I;
    i.dst = 1;
    i.src[0] = 0;
    const auto r = executeFunctional(i, warp, 0xf, ctx, gmem, {});
    EXPECT_EQ(r.dst[0], 3u);
    EXPECT_EQ(std::int32_t(r.dst[1]), -2);
    EXPECT_EQ(r.dst[2], Word(INT32_MAX));
    EXPECT_EQ(r.dst[3], 0u);
}

TEST_F(FunctionalTest, PredicateCompareAndSel)
{
    setReg(0, {1, 5, 3, 3});
    setReg(1, {3, 3, 3, 3});
    Instruction cmp = op2(Opcode::ISETP, kNoReg, 0, 1);
    cmp.dst = kNoReg;
    cmp.pdst = 0;
    cmp.cmp = CmpOp::LT;
    const auto r = executeFunctional(cmp, warp, 0xf, ctx, gmem, {});
    EXPECT_EQ(r.predTrue, 0b0001u);
    EXPECT_EQ(warp.pred(0), 0b0001u);

    Instruction sel = op2(Opcode::SEL, 2, 0, 1);
    sel.psrc = 0;
    const auto s = executeFunctional(sel, warp, 0xf, ctx, gmem, {});
    EXPECT_EQ(s.dst[0], 1u); // pred true -> src0
    EXPECT_EQ(s.dst[1], 3u); // pred false -> src1
}

TEST_F(FunctionalTest, PredicateWriteRespectsMask)
{
    setReg(0, {9, 9, 9, 9});
    warp.setPred(0, 0b1111, 0b1111);
    Instruction cmp;
    cmp.op = Opcode::ISETP;
    cmp.pdst = 0;
    cmp.cmp = CmpOp::EQ;
    cmp.src[0] = 0;
    cmp.imm = 0;
    cmp.hasImm = true;
    executeFunctional(cmp, warp, 0b0011, ctx, gmem, {});
    // Lanes 0-1 recomputed (9 != 0 -> false); lanes 2-3 keep true.
    EXPECT_EQ(warp.pred(0), 0b1100u);
}

TEST_F(FunctionalTest, SpecialRegisters)
{
    Instruction i;
    i.op = Opcode::S2R;
    i.dst = 0;
    i.sreg = SReg::Tid;
    auto r = executeFunctional(i, warp, 0xff, ctx, gmem, {});
    EXPECT_EQ(r.dst[0], 8u);  // threadBase + lane
    EXPECT_EQ(r.dst[5], 13u);
    i.sreg = SReg::CtaId;
    EXPECT_EQ(runOne(i), 3u);
    i.sreg = SReg::NTid;
    EXPECT_EQ(runOne(i), 64u);
    i.sreg = SReg::NCtaId;
    EXPECT_EQ(runOne(i), 10u);
    i.sreg = SReg::WarpId;
    EXPECT_EQ(runOne(i), 1u);
    i.sreg = SReg::LaneId;
    r = executeFunctional(i, warp, 0xff, ctx, gmem, {});
    EXPECT_EQ(r.dst[6], 6u);
}

TEST_F(FunctionalTest, GlobalLoadStore)
{
    gmem.writeWord(0x1000, 0xABCD);
    setReg(0, {0x1000, 0x1004});
    Instruction ld;
    ld.op = Opcode::LDG;
    ld.dst = 1;
    ld.src[0] = 0;
    auto r = executeFunctional(ld, warp, 0b01, ctx, gmem, {});
    EXPECT_EQ(r.dst[0], 0xABCDu);
    EXPECT_EQ(r.addrs[0], 0x1000u);

    setReg(2, {0x42, 0x43});
    Instruction st;
    st.op = Opcode::STG;
    st.src[0] = 0;
    st.src[1] = 2;
    st.imm = 8;
    executeFunctional(st, warp, 0b11, ctx, gmem, {});
    EXPECT_EQ(gmem.readWord(0x1008), 0x42u);
    EXPECT_EQ(gmem.readWord(0x100c), 0x43u);
}

TEST_F(FunctionalTest, SharedLoadStore)
{
    setReg(0, {8});  // byte address -> word 2
    setReg(1, {77});
    Instruction st;
    st.op = Opcode::STS;
    st.src[0] = 0;
    st.src[1] = 1;
    executeFunctional(st, warp, 0b1, ctx, gmem,
                      std::span<Word>(shared));
    EXPECT_EQ(shared[2], 77u);

    Instruction ld;
    ld.op = Opcode::LDS;
    ld.dst = 2;
    ld.src[0] = 0;
    const auto r = executeFunctional(ld, warp, 0b1, ctx, gmem,
                                     std::span<Word>(shared));
    EXPECT_EQ(r.dst[0], 77u);
}

TEST_F(FunctionalTest, SmovIgnoresMask)
{
    setReg(0, {1, 2, 3, 4, 5, 6, 7, 8});
    Instruction smov;
    smov.op = Opcode::SMOV;
    smov.dst = 0;
    smov.src[0] = 0;
    const auto r = executeFunctional(smov, warp, 0b1, ctx, gmem, {});
    EXPECT_EQ(r.writeMask, warp.fullMask());
    EXPECT_EQ(r.dst[7], 8u);
}

TEST_F(FunctionalTest, InactiveLanesUntouched)
{
    setReg(0, {10, 20});
    setReg(1, {1, 2});
    setReg(2, {111, 222});
    const Instruction add = op2(Opcode::IADD, 2, 0, 1);
    const auto r = executeFunctional(add, warp, 0b01, ctx, gmem, {});
    EXPECT_EQ(r.writeMask, 0b01u);
    EXPECT_EQ(r.dst[0], 11u);
    // Lane 1 result is unspecified, but the write mask excludes it.
}

// IADD/ISUB/IMUL/IMAD wrap modulo 2^32 and IABS(INT32_MIN) is
// INT32_MIN, in the SIMT pipeline's functional unit and in the
// reference interpreter alike (both compute on unsigned words, so an
// overflowing operand is defined behaviour, not signed overflow).
TEST(FunctionalOverflow, WrapsIdenticallyInBothInterpreters)
{
    const Word kEdge[] = {Word(INT32_MIN), Word(INT32_MAX), Word(-1), 0, 1,
                          2, 0x40000000, Word(INT32_MIN + 1)};
    constexpr unsigned kN = std::size(kEdge);
    constexpr unsigned kThreads = kN * kN; // every (a, b) pair
    constexpr Addr kA = 0x1000, kB = 0x2000, kC = 0x3000, kOut = 0x4000;
    constexpr unsigned kOps = 5;

    KernelBuilder kb("overflow");
    const Reg tid = kb.reg(), addr = kb.reg(), a = kb.reg(), b = kb.reg(),
              c = kb.reg(), r = kb.reg();
    kb.s2r(tid, SReg::Tid);
    kb.shli(addr, tid, 2);
    kb.ldg(a, addr, Word(kA));
    kb.ldg(b, addr, Word(kB));
    kb.ldg(c, addr, Word(kC));
    auto store = [&](unsigned slot) {
        kb.stg(addr, r, Word(kOut + slot * 4 * kThreads));
    };
    kb.iadd(r, a, b);
    store(0);
    kb.isub(r, a, b);
    store(1);
    kb.imul(r, a, b);
    store(2);
    kb.imad(r, a, b, c);
    store(3);
    kb.emit1(Opcode::IABS, r, a);
    store(4);
    const Kernel k = kb.build();

    std::vector<Word> va(kThreads), vb(kThreads), vc(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        va[t] = kEdge[t / kN];
        vb[t] = kEdge[t % kN];
        vc[t] = kEdge[(t * 3 + 1) % kN];
    }
    auto fill = [&](GlobalMemory &mem) {
        mem.fillWords(kA, va);
        mem.fillWords(kB, vb);
        mem.fillWords(kC, vc);
    };

    Gpu gpu(ArchConfig{});
    fill(gpu.memory());
    gpu.launch(k, {1, kThreads});
    const auto simt = gpu.memory().readWords(kOut, kOps * kThreads);

    GlobalMemory mem;
    fill(mem);
    referenceExecute(k, {1, kThreads}, mem);
    EXPECT_EQ(simt, mem.readWords(kOut, kOps * kThreads));

    for (unsigned t = 0; t < kThreads; ++t) {
        const Word x = va[t], y = vb[t], z = vc[t];
        SCOPED_TRACE(::testing::Message() << "a=" << x << " b=" << y);
        EXPECT_EQ(simt[0 * kThreads + t], Word(x + y));
        EXPECT_EQ(simt[1 * kThreads + t], Word(x - y));
        EXPECT_EQ(simt[2 * kThreads + t], Word(x * y));
        EXPECT_EQ(simt[3 * kThreads + t], Word(x * y + z));
        EXPECT_EQ(simt[4 * kThreads + t],
                  std::int32_t(x) < 0 ? Word(0u - x) : x);
    }
    EXPECT_EQ(simt[4 * kThreads + 0], Word(INT32_MIN)); // |INT32_MIN|
}

} // namespace
} // namespace gs
