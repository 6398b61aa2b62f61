#include "generator.hpp"

#include <array>
#include <iterator>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "isa/kernel_builder.hpp"

namespace gs
{

namespace
{

/**
 * One generation session: a KernelBuilder plus the register pools the
 * emission rolls draw from. Every random decision is an integer roll
 * on a single Rng seeded from the spec, consumed in emission order —
 * that ordering IS the determinism contract, so helpers must draw in
 * the order they emit.
 */
class GenProgram
{
  public:
    explicit GenProgram(const GenSpec &spec)
        : spec_(spec), rng_(spec.seed), b_(spec.toName())
    {
    }

    Kernel
    run()
    {
        prologue();
        emitBlock(/*depth=*/0, spec_.ops);
        epilogue();
        return b_.build();
    }

  private:
    /** Integer percentage roll; pct is a [0,100] knob. */
    bool roll(std::uint32_t pct) { return rng_.below(100) < pct; }

    Reg pickUni() { return uni_[rng_.below(uni_.size())]; }
    Reg pickAff() { return aff_[rng_.below(aff_.size())]; }
    Reg pickVar() { return var_[rng_.below(var_.size())]; }
    Reg pickFp() { return fp_[rng_.below(fp_.size())]; }

    CmpOp
    pickCmp()
    {
        return CmpOp(rng_.below(6));
    }

    /** Rolling predicate pool: old guards go stale, never dangle. */
    Pred
    nextPred()
    {
        return preds_[predCursor_++ % preds_.size()];
    }

    void
    prologue()
    {
        tid_ = b_.reg();
        ctaid_ = b_.reg();
        ntid_ = b_.reg();
        gtid_ = b_.reg();
        b_.s2r(tid_, SReg::Tid);
        b_.s2r(ctaid_, SReg::CtaId);
        b_.s2r(ntid_, SReg::NTid);
        b_.imad(gtid_, ctaid_, ntid_, tid_);

        addrA_ = b_.reg();
        addrB_ = b_.reg();
        for (Reg &r : loopIdx_)
            r = b_.reg();
        for (Reg &r : loopBound_)
            r = b_.reg();
        for (Pred &p : preds_)
            p = b_.pred();

        // Warp-uniform pool: CTA id and grid constants.
        for (Reg &r : uni_)
            r = b_.reg();
        b_.mov(uni_[0], ctaid_);
        b_.movi(uni_[1], Word(rng_.below(1 << 16)));
        b_.s2r(uni_[2], SReg::NCtaId);

        // Affine pool: linear in the global thread id.
        for (Reg &r : aff_)
            r = b_.reg();
        b_.mov(aff_[0], gtid_);
        b_.imuli(aff_[1], gtid_, Word(1 + rng_.below(8)));
        b_.iaddi(aff_[2], gtid_, Word(rng_.below(1 << 12)));

        // Varying pool: one real input load, the rest lane-dependent
        // arithmetic (imul tid*tid is deliberately non-affine).
        for (Reg &r : var_)
            r = b_.reg();
        b_.imuli(addrA_, gtid_, Word(4 * spec_.stride));
        b_.ldg(var_[0], addrA_, Word(kGenIn));
        b_.emit2i(Opcode::XOR, var_[1], tid_, Word(rng_.next32()));
        b_.imul(var_[2], tid_, tid_);
        b_.iaddi(var_[3], var_[0], Word(rng_.below(1 << 10)));
        b_.emit2(Opcode::AND, var_[4], var_[0], tid_);
        b_.shli(var_[5], tid_, Word(rng_.below(8)));

        // FP pool seeded from the varying pool.
        for (std::size_t i = 0; i < fp_.size(); ++i) {
            fp_[i] = b_.reg();
            b_.emit1(Opcode::I2F, fp_[i], var_[i % var_.size()]);
        }

        if (spec_.shared > 0)
            sharedBase_ = b_.shared(spec_.tpc * 4);
    }

    void
    epilogue()
    {
        // Store every pool register to its own per-thread output slot:
        // reg i of thread t lands at kGenOut + (i*threads + t)*4. The
        // differential harness compares this whole region.
        const std::array<Reg, kGenStoredRegs> pools = {
            uni_[0], uni_[1], uni_[2], aff_[0], aff_[1], aff_[2],
            var_[0], var_[1], var_[2], var_[3], var_[4], var_[5],
            fp_[0], fp_[1], fp_[2], fp_[3]};
        const std::uint64_t total =
            std::uint64_t(spec_.ctas) * spec_.tpc;
        b_.shli(addrB_, gtid_, 2);
        for (std::size_t i = 0; i < pools.size(); ++i)
            b_.stg(addrB_, pools[i], Word(kGenOut + i * 4 * total));
    }

    void
    emitBlock(unsigned depth, std::uint32_t steps)
    {
        for (std::uint32_t i = 0; i < steps; ++i)
            emitStep(depth);
    }

    void
    emitStep(unsigned depth)
    {
        // Barriers only in provably convergent code: top level only.
        if (depth == 0 && roll(spec_.shared)) {
            emitSharedExchange();
            return;
        }
        if (depth < 2 && roll(spec_.div)) {
            emitControl(depth);
            return;
        }
        if (roll(spec_.pred)) {
            emitPredicated();
            return;
        }
        if (roll(20)) {
            emitMemory();
            return;
        }
        emitValueOp(/*allowPredWrites=*/true);
    }

    /** sts own slot; bar; lds a rotated partner's slot; bar. */
    void
    emitSharedExchange()
    {
        const Word delta = Word(1 + rng_.below(spec_.tpc));
        const Reg src = pickAnyPool();
        const Reg dst = pickVar();
        b_.shli(addrA_, tid_, 2);
        b_.sts(addrA_, src, Word(sharedBase_));
        b_.bar();
        b_.iaddi(addrB_, tid_, delta);
        b_.emit2(Opcode::IREM, addrB_, addrB_, ntid_);
        b_.shli(addrB_, addrB_, 2);
        b_.lds(dst, addrB_, Word(sharedBase_));
        b_.bar();
    }

    /**
     * Draw cmp/source/imm as separate statements, then emit. All
     * emission helpers below do the same: several rolls inside one
     * call expression would leave the draw order to the compiler's
     * argument evaluation order, silently forking the byte stream
     * across toolchains.
     */
    void
    emitCondition(Pred p)
    {
        const CmpOp cmp = pickCmp();
        const Reg a = pickVar();
        const Word imm = Word(rng_.below(16));
        b_.isetpi(p, cmp, a, imm);
    }

    void
    emitControl(unsigned depth)
    {
        const std::uint64_t variant = rng_.below(4);
        if (variant == 0) {
            const Pred p = nextPred();
            emitCondition(p);
            b_.ifThen(p, [&] { emitBlock(depth + 1, bodySteps()); });
        } else if (variant == 1) {
            const Pred p = nextPred();
            emitCondition(p);
            b_.ifElse(
                p, [&] { emitBlock(depth + 1, bodySteps()); },
                [&] { emitBlock(depth + 1, bodySteps()); });
        } else if (variant == 2) {
            // Divergent counted loop: per-lane trip count in [0, 7].
            const Reg src = pickVar();
            b_.andi(loopBound_[depth], src, 7);
            b_.forRange(loopIdx_[depth], 0, loopBound_[depth],
                        [&] { emitBlock(depth + 1, bodySteps()); });
        } else {
            // Uniform counted loop: same trip count on every lane.
            const Word bound = Word(1 + rng_.below(3));
            b_.forRangeI(loopIdx_[depth], 0, bound,
                         [&] { emitBlock(depth + 1, bodySteps()); });
        }
    }

    std::uint32_t bodySteps() { return std::uint32_t(1 + rng_.below(3)); }

    /**
     * Guarded straight-line block. Bodies never write predicates: a
     * guarded ISETP overwriting its own guard mid-block is legal but
     * pins the block's meaning to pred-file timing, which is exactly
     * the noise the differential compare does not want to chase.
     */
    void
    emitPredicated()
    {
        const Pred p = nextPred();
        emitCondition(p);
        const bool neg = rng_.below(2) == 1;
        const std::uint32_t n = std::uint32_t(1 + rng_.below(3));
        b_.predicated(p, neg, [&] {
            for (std::uint32_t i = 0; i < n; ++i) {
                if (roll(25))
                    emitMemory();
                else
                    emitValueOp(/*allowPredWrites=*/false);
            }
        });
    }

    void
    emitMemory()
    {
        if (roll(spec_.ind)) {
            // Data-dependent gather, masked into the input array.
            const Word mask = Word(genInputWords(spec_) - 1);
            const Reg idx = pickVar();
            const Reg dst = pickVar();
            b_.andi(addrA_, idx, mask);
            b_.shli(addrA_, addrA_, 2);
            b_.ldg(dst, addrA_, Word(kGenIn));
            return;
        }
        const std::uint64_t variant = rng_.below(3);
        if (variant == 0) {
            // Strided re-load of this thread's input element.
            const Reg dst = pickVar();
            b_.imuli(addrA_, gtid_, Word(4 * spec_.stride));
            b_.ldg(dst, addrA_, Word(kGenIn));
        } else if (variant == 1) {
            // Store-then-reload through this thread's private slot:
            // races are impossible, but the value round-trips memory.
            const Reg src = pickAnyPool();
            const Reg dst = pickVar();
            b_.shli(addrA_, gtid_, 2);
            b_.stg(addrA_, src, Word(kGenOut));
            b_.ldg(dst, addrA_, Word(kGenOut));
        } else {
            const Reg dst = pickVar();
            const Reg d2 = pickVar();
            const Reg a = pickVar();
            const Reg c = pickVar();
            b_.imuli(addrA_, gtid_, Word(4 * spec_.stride));
            b_.ldg(dst, addrA_, Word(kGenIn));
            b_.emit2(Opcode::OR, d2, a, c);
        }
    }

    Reg
    pickAnyPool()
    {
        const std::uint64_t i = rng_.below(16);
        if (i < 3)
            return uni_[i];
        if (i < 6)
            return aff_[i - 3];
        if (i < 12)
            return var_[i - 6];
        return fp_[i - 12];
    }

    void
    emitValueOp(bool allowPredWrites)
    {
        const std::uint64_t cls = rng_.below(100);
        if (cls < spec_.scalar) {
            emitUniformOp();
            return;
        }
        if (cls < spec_.scalar + spec_.affine) {
            emitAffineOp();
            return;
        }
        if (roll(spec_.sfu)) {
            emitFpOp();
            return;
        }
        emitIntOp(allowPredWrites);
    }

    /** Warp-uniform destination and sources (SMOV/scalar-unit food). */
    void
    emitUniformOp()
    {
        static constexpr Opcode kOps[] = {
            Opcode::IADD, Opcode::ISUB, Opcode::IMUL, Opcode::IMIN,
            Opcode::IMAX, Opcode::AND, Opcode::OR, Opcode::XOR,
            Opcode::SHL, Opcode::SHR};
        const Opcode op = kOps[rng_.below(std::size(kOps))];
        const Reg d = pickUni();
        const Reg a = pickUni();
        if (rng_.below(2) == 0) {
            const Word imm = Word(rng_.below(1 << 12));
            b_.emit2i(op, d, a, imm);
        } else {
            const Reg c = pickUni();
            b_.emit2(op, d, a, c);
        }
    }

    /** Keep an affine register affine: add/scale by uniform amounts. */
    void
    emitAffineOp()
    {
        const Reg d = pickAff();
        switch (rng_.below(5)) {
        case 0: {
            const Reg a = pickAff();
            const Word imm = Word(rng_.below(1 << 10));
            b_.iaddi(d, a, imm);
            break;
        }
        case 1: {
            const Reg a = pickAff();
            const Reg u = pickUni();
            b_.iadd(d, a, u);
            break;
        }
        case 2: {
            const Word scale = Word(1 + rng_.below(16));
            b_.imuli(d, gtid_, scale);
            break;
        }
        case 3: {
            const Word sh = Word(rng_.below(4));
            b_.shli(d, gtid_, sh);
            break;
        }
        default: {
            const Reg a = pickAff();
            const Reg u = pickUni();
            b_.isub(d, a, u);
            break;
        }
        }
    }

    void
    emitFpOp()
    {
        static constexpr Opcode kBin[] = {Opcode::FADD, Opcode::FSUB,
                                          Opcode::FMUL, Opcode::FMIN,
                                          Opcode::FMAX};
        static constexpr Opcode kUn[] = {Opcode::FABS, Opcode::FNEG,
                                         Opcode::SIN, Opcode::COS,
                                         Opcode::EX2, Opcode::LG2,
                                         Opcode::RCP, Opcode::RSQ,
                                         Opcode::SQRT};
        switch (rng_.below(5)) {
        case 0: {
            const Opcode op = kBin[rng_.below(std::size(kBin))];
            const Reg d = pickFp();
            const Reg a = pickFp();
            const Reg c = pickFp();
            b_.emit2(op, d, a, c);
            break;
        }
        case 1: {
            const Opcode op = kUn[rng_.below(std::size(kUn))];
            const Reg d = pickFp();
            const Reg a = pickFp();
            b_.emit1(op, d, a);
            break;
        }
        case 2: {
            const Reg d = pickFp();
            const Reg a = pickFp();
            const Reg m = pickFp();
            const Reg c = pickFp();
            b_.ffma(d, a, m, c);
            break;
        }
        case 3: {
            const Reg d = pickFp();
            const Reg a = pickVar();
            b_.emit1(Opcode::I2F, d, a);
            break;
        }
        default: {
            // Saturating conversion back into the integer domain.
            const Reg d = pickVar();
            const Reg a = pickFp();
            b_.emit1(Opcode::F2I, d, a);
            break;
        }
        }
    }

    void
    emitIntOp(bool allowPredWrites)
    {
        static constexpr Opcode kBin[] = {
            Opcode::IADD, Opcode::ISUB, Opcode::IMUL, Opcode::IDIV,
            Opcode::IREM, Opcode::IMIN, Opcode::IMAX, Opcode::AND,
            Opcode::OR, Opcode::XOR, Opcode::SHL, Opcode::SHR};
        const std::uint64_t variant = rng_.below(10);
        if (variant < 5) {
            const Opcode op = kBin[rng_.below(std::size(kBin))];
            const Reg d = pickVar();
            const Reg a = pickVar();
            const Reg c = pickMixedSrc();
            b_.emit2(op, d, a, c);
        } else if (variant < 7) {
            const Opcode op = kBin[rng_.below(std::size(kBin))];
            const Reg d = pickVar();
            const Reg a = pickVar();
            const Word imm = Word(rng_.below(1 << 12));
            b_.emit2i(op, d, a, imm);
        } else if (variant == 7) {
            const Reg d = pickVar();
            const Reg a = pickVar();
            const Reg m = pickMixedSrc();
            const Reg c = pickVar();
            b_.imad(d, a, m, c);
        } else if (variant == 8) {
            const std::uint64_t un = rng_.below(2);
            const Reg d = pickVar();
            const Reg a = pickVar();
            b_.emit1(un == 0 ? Opcode::NOT : Opcode::IABS, d, a);
        } else if (allowPredWrites && rng_.below(2) == 0) {
            const Pred p = nextPred();
            const CmpOp cmp = pickCmp();
            const Reg a = pickVar();
            const Reg c = pickMixedSrc();
            b_.isetp(p, cmp, a, c);
            const Reg d = pickVar();
            const Reg t = pickVar();
            const Reg f = pickMixedSrc();
            b_.sel(d, p, t, f);
        } else {
            // SEL on an existing predicate (read-only use).
            const Pred p = preds_[rng_.below(preds_.size())];
            const Reg d = pickVar();
            const Reg t = pickVar();
            const Reg f = pickVar();
            b_.sel(d, p, t, f);
        }
    }

    /** Varying-biased source pick that sometimes crosses pools. */
    Reg
    pickMixedSrc()
    {
        const std::uint64_t i = rng_.below(10);
        if (i < 6)
            return pickVar();
        if (i < 8)
            return pickAff();
        return pickUni();
    }

    GenSpec spec_;
    Rng rng_;
    KernelBuilder b_;

    Reg tid_, ctaid_, ntid_, gtid_;
    Reg addrA_, addrB_;
    std::array<Reg, 2> loopIdx_{};
    std::array<Reg, 2> loopBound_{};
    std::array<Pred, 8> preds_{};
    std::size_t predCursor_ = 0;
    std::array<Reg, 3> uni_{};
    std::array<Reg, 3> aff_{};
    std::array<Reg, 6> var_{};
    std::array<Reg, 4> fp_{};
    unsigned sharedBase_ = 0;
};

} // namespace

std::uint64_t
genInputWords(const GenSpec &spec)
{
    const std::uint64_t need =
        std::uint64_t(spec.ctas) * spec.tpc * spec.stride;
    std::uint64_t words = 256;
    while (words < need)
        words <<= 1;
    return words;
}

std::uint64_t
genOutputWords(const GenSpec &spec)
{
    return std::uint64_t(kGenStoredRegs) * spec.ctas * spec.tpc;
}

void
fillGenInput(GlobalMemory &mem, const GenSpec &spec)
{
    Rng rng(spec.seed);
    const std::uint64_t words = genInputWords(spec);
    std::vector<Word> values(words);
    for (Word &v : values)
        // Bounded magnitudes keep IMUL/I2F chains out of the extreme
        // exponent range without ever producing two equal streams.
        v = rng.next32() & 0xffffff;
    mem.fillWords(kGenIn, values);
}

Kernel
generateKernel(const GenSpec &spec)
{
    spec.validate();
    GenProgram program(spec);
    return program.run();
}

Workload
makeGenWorkload(const GenSpec &spec)
{
    spec.validate();
    Workload w;
    w.name = spec.toName();
    w.fullName = "generated kernel (seed " + std::to_string(spec.seed) + ")";
    w.suite = "generated";
    const GenSpec captured = spec;
    w.setup = [captured](GlobalMemory &mem, std::uint64_t /*seed*/) {
        fillGenInput(mem, captured);
    };
    w.launches.push_back(
        {generateKernel(spec), LaunchDims{spec.ctas, spec.tpc}});
    return w;
}

void
registerGenWorkloads()
{
    static const bool once = [] {
        registerWorkloadResolver(
            {[](const std::string &name) -> std::optional<std::string> {
                 if (name.rfind("gen:", 0) != 0)
                     return std::nullopt;
                 std::string error;
                 parseGenSpec(name, &error);
                 return error;
             },
             [](const std::string &name) {
                 return makeGenWorkload(*parseGenSpec(name));
             }});
        return true;
    }();
    (void)once;
}

} // namespace gs
