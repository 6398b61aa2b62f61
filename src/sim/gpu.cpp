#include "gpu.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/log.hpp"
#include "sm.hpp"

namespace gs
{

namespace
{

std::atomic<bool> g_every_cycle_reference{false};

} // namespace

void
setEveryCycleReference(bool on)
{
    g_every_cycle_reference.store(on, std::memory_order_relaxed);
}

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
        throw LaunchDoesNotFit(detail::formatMsg(
            "CTA of ", dims.threadsPerCta, " threads exceeds the SM limit"));

    MemorySystem memsys(cfg_);
    CtaDispatcher dispatcher(dims.ctas);
    const KernelAnalysis analysis = analyzeKernel(kernel);

    std::vector<std::unique_ptr<Sm>> sms;
    sms.reserve(cfg_.numSms);
    for (unsigned s = 0; s < cfg_.numSms; ++s)
        sms.push_back(std::make_unique<Sm>(cfg_, s, kernel, analysis,
                                           dims, gmem_, memsys,
                                           dispatcher, tracer_));

    Cycle cycles = 0;
    bool watchdog = false;
    if (g_every_cycle_reference.load(std::memory_order_relaxed)) {
        bool all_idle = false;
        for (; cycles < cfg_.maxCycles && !all_idle; ++cycles) {
            all_idle = true;
            for (auto &sm : sms) {
                sm->tickEveryCycle(cycles);
                all_idle &= sm->idle();
            }
        }
        watchdog = !all_idle;
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
