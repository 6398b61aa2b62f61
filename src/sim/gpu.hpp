/**
 * @file
 * Top-level GPU: owns the functional global memory, the shared memory
 * hierarchy and the SM array; launches grids and runs them to
 * completion.
 */

#ifndef GSCALAR_SIM_GPU_HPP
#define GSCALAR_SIM_GPU_HPP

#include <cstdint>
#include <memory>
#include <stdexcept>

#include "common/config.hpp"
#include "common/events.hpp"
#include "gmem.hpp"
#include "isa/kernel.hpp"
#include "memory/memory_system.hpp"
#include "trace.hpp"

namespace gs
{

/**
 * Host work of one launch. Deterministic (no wall clock, the same on
 * every host) but not modelled state: it lives outside EventCounts, so
 * fingerprints, stored results and the golden output never see it.
 */
struct SimWork
{
    std::uint64_t smTicks = 0;        ///< SM cycles covered (cycles x SMs)
    std::uint64_t smTicksSkipped = 0; ///< credited without running phases
    std::uint64_t issueAttempts = 0;  ///< warp issue checks (Sm::issueWarp)
    std::uint64_t smTickCalls = 0;    ///< Sm::tick calls (0 in reference)

    std::uint64_t smTicksSimulated() const
    {
        return smTicks - smTicksSkipped;
    }
};

/** Thrown by Gpu::launch when a config that passes check() cannot host
 *  a CTA (threads, registers or shared memory): deterministic, so the
 *  engine fails the run without a retry. */
struct LaunchDoesNotFit : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Every-cycle reference loop, a process-wide launch default (off).
 * When on, Gpu::launch ticks every SM every cycle through
 * Sm::tickEveryCycle and no SM ever sleeps: the plain cycle loop whose
 * counters the quiescence skip must reproduce exactly. Tests and the
 * benchmark's traced pass set it; nothing user-facing does. It is not
 * an ArchConfig field, so it never moves a fingerprint.
 */
void setEveryCycleReference(bool on);

/**
 * A simulated GPU. Typical use:
 * @code
 *   Gpu gpu(cfg);
 *   gpu.memory().fillWords(0x1000, input);
 *   EventCounts ev = gpu.launch(kernel, {64, 256});
 * @endcode
 */
class Gpu
{
  public:
    explicit Gpu(const ArchConfig &cfg);

    /** Functional device memory (initialise inputs, read outputs). */
    GlobalMemory &memory() { return gmem_; }
    const GlobalMemory &memory() const { return gmem_; }

    /**
     * Launch @p kernel with @p dims, simulate to completion, and return
     * the merged event counters of the run. Caches and channel state
     * reset at each launch (kernel boundary).
     */
    EventCounts launch(const Kernel &kernel, LaunchDims dims);

    /** Host work of the most recent launch(). */
    const SimWork &lastLaunchWork() const { return work_; }

    const ArchConfig &config() const { return cfg_; }

    /** Attach an execution tracer (nullptr to detach). Not owned. */
    void setTracer(Tracer *t) { tracer_ = t; }

  private:
    ArchConfig cfg_;
    GlobalMemory gmem_;
    Tracer *tracer_ = nullptr;
    SimWork work_;
};

} // namespace gs

#endif // GSCALAR_SIM_GPU_HPP
