/**
 * @file
 * Counter fixture: the full csvRow of every suite run plus a few
 * off-default SM shapes, pinned in tests/data/sm_counters.txt. csvRow
 * covers every event counter and power component, so any change to
 * what the SM core models (rather than how fast it models it) shows up
 * here. Both launch loops must reproduce the rows: the event-driven
 * one, which skips quiescent cycles, and the every-cycle reference
 * (setEveryCycleReference), which ticks every SM every cycle. A bug in
 * the skip fails only the first.
 *
 * Regenerate the rows only for an intended model change, from the
 * repository root; it refuses to write unless both loops agree:
 *
 *   build/tests/gscalar_tests --gtest_also_run_disabled_tests \
 *       --gtest_filter=CounterFixture.DISABLED_Regenerate
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "sim/gpu.hpp"
#include "workloads/workload.hpp"

namespace gs
{
namespace
{

/** One fixture line: "<shape>,<csvRow>". */
struct Case
{
    std::string shape;
    std::string workload;
    ArchConfig cfg;
};

ArchConfig
withMode(ArchMode m)
{
    ArchConfig cfg; // the suite's input seed
    cfg.mode = m;
    return cfg;
}

std::vector<Case>
fixtureCases()
{
    std::vector<Case> out;
    for (const ArchMode m : {ArchMode::Baseline, ArchMode::GScalarFull})
        for (const std::string &w : workloadNames())
            out.push_back({"suite", w, withMode(m)});

    // Off-default shapes, in gscalar mode: scheduler order, collector
    // counts on either side of the default 16, more than 64 warp slots
    // per SM, and a scheduler count that does not divide the warps.
    const std::vector<std::pair<std::string,
                                std::function<void(ArchConfig &)>>>
        shapes = {
            {"lrr",
             [](ArchConfig &c) {
                 c.schedPolicy = SchedPolicy::LooseRoundRobin;
             }},
            {"oc6", [](ArchConfig &c) { c.numCollectors = 6; }},
            {"oc80", [](ArchConfig &c) { c.numCollectors = 80; }},
            {"warp8",
             [](ArchConfig &c) {
                 c.warpSize = 8;
                 c.simtWidth = 8;
                 c.checkGranularity = 8;
             }},
            {"sched3", [](ArchConfig &c) { c.numSchedulers = 3; }},
        };
    for (const auto &[name, apply] : shapes)
        for (const char *w : {"LC", "SR2", "HS", "ST"}) {
            ArchConfig cfg = withMode(ArchMode::GScalarFull);
            apply(cfg);
            out.push_back({name, w, cfg});
        }
    return out;
}

/** Every case's fixture line, under the reference loop or not. */
std::vector<std::string>
fixtureLines(bool everyCycle)
{
    struct Restore
    {
        ~Restore() { setEveryCycleReference(false); }
    } restore;
    setEveryCycleReference(everyCycle);
    std::vector<std::string> out;
    for (const Case &c : fixtureCases())
        out.push_back(c.shape + "," +
                      csvRow(runWorkload(c.workload, c.cfg)));
    return out;
}

/** Fixture lines in order, comments and blank lines dropped. */
std::vector<std::string>
readFixture()
{
    std::ifstream in(GS_COUNTER_FIXTURE);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    return lines;
}

void
expectPinned(bool everyCycle)
{
    setQuiet(true);
    const std::vector<Case> cases = fixtureCases();
    const std::vector<std::string> pinned = readFixture();
    ASSERT_EQ(pinned.size(), cases.size()) << GS_COUNTER_FIXTURE;
    const std::vector<std::string> lines = fixtureLines(everyCycle);
    for (std::size_t i = 0; i < cases.size(); ++i)
        EXPECT_EQ(pinned[i], lines[i])
            << cases[i].shape << "/" << cases[i].workload;
}

// Two tests, so that ctest -j runs the loops concurrently.
TEST(CounterFixture, SerialRunsReproducePinnedCounters)
{
    expectPinned(false);
}

TEST(CounterFixture, EveryCycleReferenceReproducesPinnedCounters)
{
    expectPinned(true);
}

TEST(CounterFixture, DISABLED_Regenerate)
{
    setQuiet(true);
    const std::vector<Case> cases = fixtureCases();
    const std::vector<std::string> lines = fixtureLines(false);
    const std::vector<std::string> reference = fixtureLines(true);
    bool agree = true;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(reference[i], lines[i])
            << cases[i].shape << "/" << cases[i].workload;
        agree = agree && reference[i] == lines[i];
    }
    ASSERT_TRUE(agree) << "the loops disagree; not writing "
                       << GS_COUNTER_FIXTURE;
    std::ofstream out(GS_COUNTER_FIXTURE);
    out << "# shape," << csvHeader() << "\n";
    for (const std::string &line : lines)
        out << line << "\n";
    ASSERT_TRUE(out.good()) << GS_COUNTER_FIXTURE;
}

} // namespace
} // namespace gs
