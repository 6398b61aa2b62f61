/**
 * @file
 * Checks of the benchmark's own arithmetic (bench_core.hpp): percentiles
 * on known samples, a byte-identical open-loop schedule for a fixed
 * seed, span self time, and the engine.utilization and failed_frac
 * formulas. Exits nonzero if any check fails.
 *
 *   gsbench_selftest
 */

#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_core.hpp"

namespace
{

int failures = 0;

void
check(bool cond, const std::string &what)
{
    if (!cond) {
        std::cerr << "selftest FAILED: " << what << "\n";
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

void
testPercentiles()
{
    const std::vector<double> one_to_ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    check(near(gsb::percentile(one_to_ten, 0), 1), "p0 is the minimum");
    check(near(gsb::percentile(one_to_ten, 100), 10), "p100 is the maximum");
    check(near(gsb::median(one_to_ten), 5.5), "median of 1..10 is 5.5");
    check(near(gsb::percentile(one_to_ten, 90), 9.1), "p90 of 1..10 is 9.1");
    check(near(gsb::percentile({4.0}, 90), 4), "single sample");
    check(gsb::percentile({}, 50) == 0, "empty sample is 0");
    std::vector<double> hundred;
    for (int i = 1; i <= 101; ++i)
        hundred.push_back(i);
    check(near(gsb::percentile(hundred, 90), 91), "p90 of 1..101 is 91");
    check(gsb::percentileSupported(100, 90), "p90 needs 100 samples");
    check(!gsb::percentileSupported(99, 90), "99 samples do not carry p90");
    check(gsb::percentileSupported(20, 50), "20 samples carry p50");
}

std::string
scheduleBytes(const std::vector<gsb::Arrival> &s)
{
    std::string out;
    for (const gsb::Arrival &a : s) {
        char buf[sizeof a.dueNs];
        std::memcpy(buf, &a.dueNs, sizeof buf);
        out.append(buf, sizeof buf);
        out.push_back(char(a.cls));
    }
    return out;
}

void
testSchedule()
{
    const auto a = gsb::makeSchedule(42, 50, 4);
    const auto b = gsb::makeSchedule(42, 50, 4);
    const auto c = gsb::makeSchedule(43, 50, 4);
    check(!a.empty(), "schedule is not empty");
    check(scheduleBytes(a) == scheduleBytes(b),
          "same seed gives a byte-identical schedule");
    check(scheduleBytes(a) != scheduleBytes(c),
          "another seed gives another schedule");
    check(a.size() > 150 && a.size() < 250, "about rate x seconds arrivals");
    std::size_t counts[3] = {};
    for (std::size_t i = 0; i < a.size(); ++i) {
        ++counts[std::size_t(a[i].cls)];
        if (i)
            check(a[i].dueNs >= a[i - 1].dueNs, "due times are sorted");
        check(a[i].dueNs < 4'000'000'000, "arrivals fall in the window");
    }
    check(a.front().cls == gsb::ReqClass::Fresh, "first request is fresh");
    const std::size_t third = a.size() / 3;
    for (std::size_t k = 0; k < 3; ++k)
        check(counts[k] == third || counts[k] == third + 1,
              "each class takes an exact third");
    double mean = 0;
    for (int s = 0; s < 50; ++s)
        mean += double(gsb::makeSchedule(std::uint64_t(s), 100, 2).size());
    mean /= 50;
    check(mean > 190 && mean < 210, "Poisson count averages rate x time");
}

void
testSelfTime()
{
    // root [0,100] with children [10,30] and [20,50] (overlapping) and
    // a grandchild [12,18] under the first child.
    std::vector<gsb::Span> spans = {
        {"root", 0, 100, -1, 1},
        {"a", 10, 30, 0, 1},
        {"b", 20, 50, 0, 1},
        {"a.x", 12, 18, 1, 1},
        {"late", 90, 130, 0, 1}, // sticks out of its parent: clipped
    };
    const std::vector<std::int64_t> self = gsb::selfTimesNs(spans);
    check(self[0] == 100 - 40 - 10, "root self = 100 - union(10..50, 90..100)");
    check(self[1] == 20 - 6, "child self excludes its grandchild");
    check(self[2] == 30, "leaf self is its duration");
    check(self[3] == 6, "grandchild self is its duration");

    gsb::SpanLog log(true);
    {
        gsb::Scope outer(log, "outer", 7);
        gsb::Scope inner(log, "inner", 7);
    }
    const auto recorded = log.spans();
    check(recorded.size() == 2 && recorded[1].parent == 0,
          "a span opened inside another is its child");
    check(recorded[0].endNs >= recorded[1].endNs,
          "the parent closes after its child");
    gsb::SpanLog off(false);
    {
        gsb::Scope s(off, "ignored");
    }
    check(off.spans().empty(), "a disabled log records nothing");
}

void
testFormulas()
{
    check(near(gsb::engineUtilization(81.5, 4, 31.1), 81.5 / 124.4),
          "utilization = simulate / (jobs x wall)");
    check(gsb::engineUtilization(1, 0, 1) == 0, "no jobs: utilization 0");
    check(gsb::engineUtilization(1, 4, 0) == 0, "no wall: utilization 0");
    check(near(gsb::failedFrac(3, 12), 0.25), "failed_frac = failed/attempted");
    check(gsb::failedFrac(0, 0) == 0, "nothing attempted: failed_frac 0");
    check(gsb::jsonNumber(0.1) == "0.1", "shortest round-trip number");
    check(gsb::jsonNumber(1.0 / 3) == "0.3333333333333333",
          "numbers keep all their digits");
    check(gsb::jsonString("a\"b\n") == "\"a\\\"b\\u000a\"", "JSON escaping");
}

} // namespace

int
main()
{
    testPercentiles();
    testSchedule();
    testSelfTime();
    testFormulas();
    if (failures) {
        std::cerr << failures << " selftest check(s) failed\n";
        return 1;
    }
    std::cout << "selftest ok\n";
    return 0;
}
