#include "workload.hpp"

#include <array>

#include "common/log.hpp"
#include "kernels/kernels.hpp"

namespace gs
{

namespace
{

struct SuiteEntry
{
    const char *name;
    Workload (*make)();
};

/** The one name table: Table 2 order, Rodinia then Parboil. */
constexpr std::array<SuiteEntry, 17> kSuite = {{
    {"BT", makeBT},   {"BP", makeBP},   {"HW", makeHW},
    {"HS", makeHS},   {"LC", makeLC},   {"PF", makePF},
    {"SR1", makeSR1}, {"SR2", makeSR2}, {"CC", makeCC},
    {"LBM", makeLBM}, {"MG", makeMG},   {"MQ", makeMQ},
    {"SAD", makeSAD}, {"MM", makeMM},   {"MV", makeMV},
    {"ST", makeST},   {"ACF", makeACF},
}};

const SuiteEntry *
findEntry(const std::string &abbr)
{
    for (const SuiteEntry &e : kSuite)
        if (abbr == e.name)
            return &e;
    return nullptr;
}

std::vector<WorkloadResolver> &
resolvers()
{
    static std::vector<WorkloadResolver> r;
    return r;
}

} // namespace

std::vector<Workload>
makeSuite()
{
    std::vector<Workload> suite;
    suite.reserve(kSuite.size());
    for (const SuiteEntry &e : kSuite)
        suite.push_back(e.make());
    return suite;
}

void
registerWorkloadResolver(WorkloadResolver resolver)
{
    resolvers().push_back(std::move(resolver));
}

Workload
makeWorkload(const std::string &abbr)
{
    if (const SuiteEntry *e = findEntry(abbr))
        return e->make();
    for (const WorkloadResolver &r : resolvers())
        if (const std::optional<std::string> bad = r.check(abbr);
            bad && bad->empty())
            return r.make(abbr);
    std::string why;
    workloadResolvable(abbr, &why);
    GS_FATAL(why);
}

bool
workloadResolvable(const std::string &abbr, std::string *why)
{
    if (findEntry(abbr))
        return true;
    for (const WorkloadResolver &r : resolvers()) {
        if (const std::optional<std::string> bad = r.check(abbr)) {
            if (bad->empty())
                return true;
            if (why)
                *why = "workload '" + abbr + "': " + *bad;
            return false;
        }
    }
    if (why)
        *why = "unknown workload '" + abbr + "'";
    return false;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const SuiteEntry &e : kSuite)
            out.emplace_back(e.name);
        return out;
    }();
    return names;
}

} // namespace gs
