/**
 * @file
 * Fault-injector unit tests (fault/fault.hpp): spec parsing, the
 * seeded-determinism contract (same seed -> same firing sequence),
 * rate edge cases, the Suppress guard, fired counters, and the
 * reliability-counter registry completeness check in the
 * eventMetrics() idiom.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"

using namespace gs;

namespace
{

/** The firing decisions of @p inj for n consultations of one hook. */
std::vector<bool>
decisions(FaultInjector &inj, int n,
          const char *site = "engine",
          FaultKind kind = FaultKind::Throw)
{
    std::vector<bool> out;
    for (int i = 0; i < n; ++i)
        out.push_back(inj.shouldInject(site, kind));
    return out;
}

} // namespace

TEST(FaultSpecParse, KindNamesRoundTrip)
{
    for (const FaultKind k :
         {FaultKind::ShortWrite, FaultKind::RenameFail, FaultKind::BitFlip,
          FaultKind::ConnReset, FaultKind::ShortRead, FaultKind::Eintr,
          FaultKind::Stall, FaultKind::Throw, FaultKind::Slow,
          FaultKind::JournalTornWrite, FaultKind::JournalBitFlip,
          FaultKind::PointCrash, FaultKind::DaemonLost}) {
        const std::optional<FaultKind> back =
            parseFaultKind(faultKindName(k));
        ASSERT_TRUE(back.has_value()) << faultKindName(k);
        EXPECT_EQ(*back, k);
    }
    EXPECT_FALSE(parseFaultKind("segfault").has_value());
    EXPECT_FALSE(parseFaultKind("").has_value());
}

TEST(FaultSpecParse, SweepSiteIsAccepted)
{
    FaultInjector inj;
    std::string err;
    ASSERT_TRUE(
        inj.configure("sweep:journal-torn-write:1,sweep:point-crash:1",
                      &err))
        << err;
    EXPECT_TRUE(inj.shouldInject("sweep", FaultKind::JournalTornWrite));
    EXPECT_TRUE(inj.shouldInject("sweep", FaultKind::PointCrash));
    EXPECT_FALSE(inj.shouldInject("sweep", FaultKind::DaemonLost));
    EXPECT_FALSE(inj.shouldInject("store", FaultKind::PointCrash));
    EXPECT_GE(inj.injectedAt("sweep"), 2u);

    // Unknown sites still fail with the site list, now naming sweep.
    err.clear();
    EXPECT_FALSE(inj.configure("gpu:point-crash:1", &err));
    EXPECT_NE(err.find("sweep"), std::string::npos);
}

TEST(FaultSpecParse, RetiredSimSiteIsRejected)
{
    FaultInjector inj;
    std::string err;
    EXPECT_FALSE(inj.configure("sim:slow:0.1", &err));
    EXPECT_FALSE(inj.armed());
    EXPECT_NE(err.find("unknown fault site 'sim'"), std::string::npos)
        << err;
    // The message lists the valid sites, and "sim" is not one of them.
    EXPECT_NE(err.find("store, serve, engine, gen, rf or sweep"),
              std::string::npos)
        << err;
}

TEST(FaultSpecParse, ValidSpecsArm)
{
    FaultInjector inj;
    std::string err;
    ASSERT_TRUE(inj.configure("engine:throw:0.25:42", &err)) << err;
    ASSERT_TRUE(inj.armed());
    const std::vector<FaultSpec> specs = inj.specs();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].site, "engine");
    EXPECT_EQ(specs[0].kind, FaultKind::Throw);
    EXPECT_DOUBLE_EQ(specs[0].rate, 0.25);
    EXPECT_EQ(specs[0].seed, 42u);

    // Multiple comma-separated specs; seed defaults to 0.
    ASSERT_TRUE(inj.configure(
        "store:bit-flip:0.05,serve:conn-reset:1.0:7", &err))
        << err;
    ASSERT_EQ(inj.specs().size(), 2u);
    EXPECT_EQ(inj.specs()[0].seed, 0u);
    EXPECT_EQ(inj.specs()[1].rate, 1.0);
}

TEST(FaultSpecParse, MalformedSpecsKeepPreviousConfig)
{
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("engine:throw:0.5"));

    std::string err;
    const char *bad[] = {
        "engine:throw",           // missing rate
        "engine:throw:0.5:1:2",   // too many fields
        "gpu:throw:0.5",          // unknown site
        "engine:segfault:0.5",    // unknown kind
        "engine:throw:1.5",       // rate above 1
        "engine:throw:-0.1",      // negative rate
        "engine:throw:abc",       // non-numeric rate
        "engine:throw:0.5:-3",    // negative seed
        "engine:throw:0.5:xyz",   // non-numeric seed
    };
    for (const char *spec : bad) {
        err.clear();
        EXPECT_FALSE(inj.configure(spec, &err)) << spec;
        EXPECT_FALSE(err.empty()) << spec;
        // The previous good configuration survives a rejected one.
        ASSERT_EQ(inj.specs().size(), 1u) << spec;
        EXPECT_EQ(inj.specs()[0].site, "engine");
    }
}

TEST(FaultSpecParse, EmptyStringDisarms)
{
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("engine:throw:0.5"));
    ASSERT_TRUE(inj.armed());
    ASSERT_TRUE(inj.configure(""));
    EXPECT_FALSE(inj.armed());
    EXPECT_FALSE(inj.shouldInject("engine", FaultKind::Throw));

    ASSERT_TRUE(inj.configure("engine:throw:0.5"));
    inj.disarm();
    EXPECT_FALSE(inj.armed());
}

TEST(FaultInjector, SameSeedSameSequence)
{
    FaultInjector a, b;
    ASSERT_TRUE(a.configure("engine:throw:0.3:1234"));
    ASSERT_TRUE(b.configure("engine:throw:0.3:1234"));
    const std::vector<bool> da = decisions(a, 500);
    const std::vector<bool> db = decisions(b, 500);
    EXPECT_EQ(da, db);
    // Roughly rate * n firings; generous bounds, deterministic anyway.
    EXPECT_EQ(a.injected(), b.injected());
    EXPECT_GT(a.injected(), 100u);
    EXPECT_LT(a.injected(), 200u);

    // Reconfiguring resets the occurrence counter: the sequence replays.
    ASSERT_TRUE(a.configure("engine:throw:0.3:1234"));
    EXPECT_EQ(decisions(a, 500), db);
}

TEST(FaultInjector, DifferentSeedDifferentSequence)
{
    FaultInjector a, b;
    ASSERT_TRUE(a.configure("engine:throw:0.5:1"));
    ASSERT_TRUE(b.configure("engine:throw:0.5:2"));
    EXPECT_NE(decisions(a, 256), decisions(b, 256));
}

TEST(FaultInjector, RateZeroNeverFiresRateOneAlwaysFires)
{
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("serve:eintr:0"));
    for (int i = 0; i < 200; ++i)
        EXPECT_FALSE(inj.shouldInject("serve", FaultKind::Eintr));
    EXPECT_EQ(inj.injected(), 0u);

    ASSERT_TRUE(inj.configure("serve:eintr:1"));
    for (int i = 0; i < 200; ++i)
        EXPECT_TRUE(inj.shouldInject("serve", FaultKind::Eintr));
    EXPECT_EQ(inj.injected(), 200u);
    EXPECT_EQ(inj.injectedAt("serve"), 200u);
    EXPECT_EQ(inj.injectedAt("store"), 0u);
}

TEST(FaultInjector, OnlyMatchingSiteAndKindFire)
{
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("store:bit-flip:1"));
    EXPECT_FALSE(inj.shouldInject("serve", FaultKind::BitFlip));
    EXPECT_FALSE(inj.shouldInject("store", FaultKind::ShortWrite));
    EXPECT_TRUE(inj.shouldInject("store", FaultKind::BitFlip));
}

TEST(FaultInjector, SuppressGuardBlocksInjection)
{
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("engine:throw:1"));
    EXPECT_FALSE(FaultInjector::suppressed());
    {
        FaultInjector::Suppress guard;
        EXPECT_TRUE(FaultInjector::suppressed());
        EXPECT_FALSE(inj.shouldInject("engine", FaultKind::Throw));
        {
            FaultInjector::Suppress nested;
            EXPECT_TRUE(FaultInjector::suppressed());
        }
        EXPECT_TRUE(FaultInjector::suppressed());
    }
    EXPECT_FALSE(FaultInjector::suppressed());
    EXPECT_TRUE(inj.shouldInject("engine", FaultKind::Throw));
}

TEST(FaultInjector, FiringBumpsGlobalHealthCounter)
{
    healthCounters().reset();
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("engine:slow:1"));
    ASSERT_TRUE(inj.shouldInject("engine", FaultKind::Slow));
    EXPECT_EQ(healthCounters().snapshot().faultsInjected, 1u);
    healthCounters().reset();
}

TEST(HealthCounters, SnapshotAndResetRoundTrip)
{
    healthCounters().reset();
    healthCounters().runRetries += 2;
    healthCounters().cacheQuarantines += 1;
    const HealthCounts s = healthCounters().snapshot();
    EXPECT_EQ(s.runRetries, 2u);
    EXPECT_EQ(s.cacheQuarantines, 1u);
    EXPECT_EQ(s.clientRetries, 0u);

    const std::string summary = healthSummary();
    EXPECT_NE(summary.find("run_retries 2"), std::string::npos);
    EXPECT_NE(summary.find("cache_quarantines 1"), std::string::npos);
    EXPECT_EQ(summary.find("client_retries"), std::string::npos);

    healthCounters().reset();
    EXPECT_EQ(healthCounters().snapshot().runRetries, 0u);
    EXPECT_TRUE(healthSummary().empty());
}

TEST(ClientRetryDeadline, DeadlineCapsTheRetryLadder)
{
    healthCounters().reset();
    // No daemon listens here. Without the deadline, 50 attempts with a
    // 50ms floor would sleep for seconds; the deadline fails the
    // operation fast with an explicit reason instead.
    ClientOptions o;
    o.connectTimeoutSec = 0.2;
    o.attempts = 50;
    o.backoffBaseSec = 0.05;
    o.backoffMaxSec = 0.05;
    o.retryDeadlineSec = 0.2;
    GscalarClient client("/tmp/gs-no-such-daemon-deadline.sock", o);
    std::string err;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(client.ping(&err));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_NE(err.find("retry deadline exceeded"), std::string::npos)
        << err;
    // Generous bound: the ladder stopped near the 0.2s deadline, not
    // after 49 backoffs (~2.5s+).
    EXPECT_LT(elapsed, 2.0);
    healthCounters().reset();
}

TEST(ClientRetryDeadline, FromEnvParsesGsRetryDeadlineMs)
{
    ::setenv("GS_RETRY_DEADLINE_MS", "1500", 1);
    EXPECT_DOUBLE_EQ(ClientOptions::fromEnv().retryDeadlineSec, 1.5);
    ::setenv("GS_RETRY_DEADLINE_MS", "0", 1);
    EXPECT_DOUBLE_EQ(ClientOptions::fromEnv().retryDeadlineSec, 0.0);
    // Malformed, non-finite and over-a-day values warn and keep the
    // uncapped default (inf would overflow the integer duration cast).
    for (const char *bad :
         {"nope", "-100", "12ms", "inf", "nan", "1e300", "86400001"}) {
        ::setenv("GS_RETRY_DEADLINE_MS", bad, 1);
        EXPECT_DOUBLE_EQ(ClientOptions::fromEnv().retryDeadlineSec, 0.0)
            << bad;
    }
    ::unsetenv("GS_RETRY_DEADLINE_MS");
    EXPECT_DOUBLE_EQ(ClientOptions::fromEnv().retryDeadlineSec, 0.0);
}

TEST(ClientRetryDeadline, FromEnvParsesGsConnectTimeoutMs)
{
    const double fallback = ClientOptions{}.connectTimeoutSec;
    ::setenv("GS_CONNECT_TIMEOUT_MS", "250", 1);
    EXPECT_DOUBLE_EQ(ClientOptions::fromEnv().connectTimeoutSec, 0.25);
    ::setenv("GS_CONNECT_TIMEOUT_MS", "86400000", 1);
    EXPECT_DOUBLE_EQ(ClientOptions::fromEnv().connectTimeoutSec, 86400.0);
    for (const char *bad :
         {"nope", "-100", "12ms", "inf", "nan", "1e300", "86400001"}) {
        ::setenv("GS_CONNECT_TIMEOUT_MS", bad, 1);
        EXPECT_DOUBLE_EQ(ClientOptions::fromEnv().connectTimeoutSec,
                         fallback)
            << bad;
    }
    ::unsetenv("GS_CONNECT_TIMEOUT_MS");
}

TEST(HealthMetrics, RegistryCoversEveryCounter)
{
    // The static_assert in health.hpp pins the field count; here we pin
    // name uniqueness and that each member pointer addresses a distinct
    // field (same contract the EventCounts registry test enforces).
    const auto &regs = healthMetrics();
    EXPECT_EQ(regs.size(), kHealthCountFields);

    std::set<std::string> names;
    std::set<const char *> units;
    HealthCounts probe;
    std::uint64_t tag = 1;
    for (const auto &m : regs) {
        ASSERT_NE(m.name, nullptr);
        ASSERT_NE(m.field, nullptr);
        EXPECT_TRUE(names.insert(m.name).second)
            << "duplicate metric name " << m.name;
        EXPECT_STREQ(m.unit, "events");
        probe.*(m.field) = tag++;
    }
    // Every field got a distinct tag through its registry pointer, so
    // the pointers address kHealthCountFields distinct fields.
    std::set<std::uint64_t> tags;
    for (const auto &m : regs)
        tags.insert(m.value(probe));
    EXPECT_EQ(tags.size(), kHealthCountFields);
}
