/**
 * @file
 * Compatibility shim, kept only for the end-to-end benchmark program
 * (perfbench/), which still calls the retired intra-run threading API.
 * Delete it once that program calls setEveryCycleReference() directly.
 */

#ifndef GSCALAR_SIM_PARALLEL_HPP
#define GSCALAR_SIM_PARALLEL_HPP

#include "gpu.hpp"

namespace gs
{

/** More than one "thread" selects the every-cycle reference loop. */
inline void
setSimThreads(unsigned threads)
{
    setEveryCycleReference(threads > 1);
}

} // namespace gs

#endif // GSCALAR_SIM_PARALLEL_HPP
