/**
 * @file
 * A workload: one kernel (or a short kernel sequence) modelling a
 * Rodinia/Parboil benchmark (Table 2), together with its input
 * initialisation and launch geometry.
 */

#ifndef GSCALAR_WORKLOADS_WORKLOAD_HPP
#define GSCALAR_WORKLOADS_WORKLOAD_HPP

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "isa/kernel.hpp"
#include "sim/gmem.hpp"

namespace gs
{

/** One kernel launch of a workload. */
struct WorkloadLaunch
{
    Kernel kernel;
    LaunchDims dims;
};

/** A synthetic benchmark: input setup plus one or more launches. */
struct Workload
{
    std::string name;   ///< Table 2 abbreviation (e.g. "BP")
    std::string fullName;
    std::string suite;  ///< "rodinia" or "parboil"
    /** Initialise device memory; called once before the launches. */
    std::function<void(GlobalMemory &, std::uint64_t seed)> setup;
    std::vector<WorkloadLaunch> launches;
};

/** All 17 benchmarks of Table 2, in the paper's order. */
std::vector<Workload> makeSuite();

/** Look up one benchmark by its Table 2 abbreviation. */
Workload makeWorkload(const std::string &abbr);

/**
 * Pluggable resolver for names the Table 2 registry does not know. The
 * generator subsystem registers one for "gen:..." spec names
 * (registerGenWorkloads()), so generated kernels flow through every
 * path a Table 2 name can take — engine, disk cache, daemon, CLI.
 * `check` only parses and never exits: std::nullopt when the name is
 * not this resolver's, else why it is malformed (empty when it is
 * well formed). `make` builds a name `check` accepted. Resolvers must
 * be registered before any concurrent use (binaries do it in main()).
 */
struct WorkloadResolver
{
    std::function<std::optional<std::string>(const std::string &name)>
        check;
    std::function<Workload(const std::string &name)> make;
};
void registerWorkloadResolver(WorkloadResolver resolver);

/** Table 2 abbreviations in paper order. */
const std::vector<std::string> &workloadNames();

/**
 * Whether @p abbr names a Table 2 workload or a registered resolver
 * accepts it — the non-fatal, parse-only probe callers use to
 * validate names before makeWorkload() (which is fatal on them). It
 * builds and expands nothing. When false, @p why (if given) gets the
 * reason: "unknown workload 'X'" or the resolver's parse error.
 */
bool workloadResolvable(const std::string &abbr,
                        std::string *why = nullptr);

} // namespace gs

#endif // GSCALAR_WORKLOADS_WORKLOAD_HPP
