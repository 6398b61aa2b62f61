#include "gpu.hpp"

#include <algorithm>
#include <vector>

#include "common/log.hpp"
#include "parallel.hpp"
#include "sm.hpp"

namespace gs
{

Gpu::Gpu(const ArchConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
}

EventCounts
Gpu::launch(const Kernel &kernel, LaunchDims dims)
{
    kernel.validate();
    if (dims.ctas == 0 || dims.threadsPerCta == 0)
        GS_FATAL("empty launch for kernel '", kernel.name, "'");
    if (dims.threadsPerCta > cfg_.maxThreadsPerSm)
        GS_FATAL("CTA of ", dims.threadsPerCta,
                 " threads exceeds the SM limit");

    MemorySystem memsys(cfg_);
    CtaDispatcher dispatcher(dims.ctas);
    const KernelAnalysis analysis = analyzeKernel(kernel);

    std::vector<std::unique_ptr<Sm>> sms;
    sms.reserve(cfg_.numSms);
    for (unsigned s = 0; s < cfg_.numSms; ++s)
        sms.push_back(std::make_unique<Sm>(cfg_, s, kernel, analysis,
                                           dims, gmem_, memsys,
                                           dispatcher, tracer_));

    // More threads than SMs buys nothing; a tracer observes the exact
    // serial interleaving, so tracing forces the serial path.
    unsigned threads = std::min<unsigned>(resolveSimThreads(),
                                          cfg_.numSms);
    if (tracer_ != nullptr)
        threads = 1;

    Cycle cycles = 0;
    bool watchdog = false;
    if (threads > 1 && cfg_.maxCycles > 0) {
        std::vector<Sm *> raw;
        raw.reserve(sms.size());
        for (auto &sm : sms) {
            sm->setDeferredGmem(true);
            raw.push_back(sm.get());
        }
        const ParallelLaunchOutcome out =
            runSmsParallel(raw, cfg_.maxCycles, threads, kernel.name);
        cycles = out.cycles;
        watchdog = out.watchdog;
    } else {
        // Only awake SMs are ticked. A sleeping SM's cycles are
        // credited lazily, before its next tick and at the end: until
        // it wakes its state, idle() and wakeAt() cannot change (see
        // docs/PERFORMANCE.md, "Per-instruction costs").
        auto creditTo = [](Sm &sm, Cycle upto) {
            if (upto > sm.events().cycles)
                sm.skipQuiet(upto - sm.events().cycles);
        };
        Cycle now = 0;
        while (now < cfg_.maxCycles) {
            bool all_idle = true;
            Cycle wake = Sm::kNoWake;
            for (auto &sm : sms) {
                if (now >= sm->wakeAt()) {
                    creditTo(*sm, now);
                    sm->tick(now);
                }
                all_idle &= sm->idle();
                wake = std::min(wake, sm->wakeAt());
            }
            if (all_idle)
                break;
            // Resume at the earliest wake-up (at least now + 1). A
            // deadlocked grid reaches the watchdog in one step.
            now = std::min(wake, cfg_.maxCycles);
        }
        watchdog = now >= cfg_.maxCycles;
        // On a watchdog stop the loop counter has already run past the
        // last simulated cycle; report only cycles actually simulated.
        cycles = watchdog ? cfg_.maxCycles : now + 1;
        for (auto &sm : sms)
            creditTo(*sm, cycles);
    }
    if (watchdog)
        GS_WARN("kernel '", kernel.name, "' hit the ", cfg_.maxCycles,
                "-cycle watchdog; results are partial");

    EventCounts total;
    work_ = {};
    for (auto &sm : sms) {
        total += sm->events();
        work_.smTicks += sm->events().cycles;
        work_.smTicksSkipped += sm->ticksSkipped();
        work_.issueAttempts += sm->issueAttempts();
        work_.smTickCalls += sm->tickCalls();
    }
    total.cycles = cycles;
    return total;
}

} // namespace gs
