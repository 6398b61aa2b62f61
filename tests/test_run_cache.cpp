/**
 * @file
 * Disk run-cache tests (store/run_cache.hpp): store/load round trips in
 * a throwaway directory, corrupt-record rejection (with quarantine),
 * the embedded-config authority check, LRU eviction and fromEnv
 * plumbing.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "fault/health.hpp"
#include "store/run_cache.hpp"
#include "store/serial.hpp"

namespace fs = std::filesystem;
using namespace gs;

namespace
{

/** Fresh mkdtemp directory, removed on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "gscache-XXXXXX").string();
        char *p = ::mkdtemp(tmpl.data());
        EXPECT_NE(p, nullptr);
        path = tmpl;
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

RunResult
makeResult(const std::string &abbr, std::uint64_t cycles)
{
    RunResult r;
    r.workload = abbr;
    r.mode = ArchMode::GScalarFull;
    r.ev.cycles = cycles;
    r.ev.warpInsts = cycles * 3;
    r.power.totalW = 12.5;
    r.wallSeconds = 0.25;
    return r;
}

/** Live .run records under @p root, excluding the quarantine dir. */
std::vector<fs::path>
recordFiles(const std::string &root)
{
    std::vector<fs::path> out;
    std::error_code ec;
    for (const auto &e : fs::recursive_directory_iterator(root, ec)) {
        if (!e.is_regular_file() || e.path().extension() != ".run")
            continue;
        bool quarantined = false;
        for (const auto &part : e.path())
            if (part == "quarantine")
                quarantined = true;
        if (!quarantined)
            out.push_back(e.path());
    }
    return out;
}

std::size_t
quarantinedFiles(const DiskRunCache &cache)
{
    std::error_code ec;
    std::size_t n = 0;
    for (const auto &e :
         fs::directory_iterator(cache.quarantineDir(), ec))
        if (e.is_regular_file())
            ++n;
    return n;
}

} // namespace

TEST(DiskRunCache, MissThenStoreThenHit)
{
    TempDir tmp;
    DiskRunCache cache(tmp.path);
    ArchConfig cfg;

    EXPECT_FALSE(cache.load("BT", cfg).has_value());
    EXPECT_EQ(cache.stats().misses, 1u);

    const RunResult stored = makeResult("BT", 8618);
    ASSERT_TRUE(cache.store("BT", cfg, stored));

    const std::optional<RunResult> back = cache.load("BT", cfg);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->ev.cycles, stored.ev.cycles);
    EXPECT_EQ(back->workload, stored.workload);
    EXPECT_EQ(back->mode, stored.mode);
    EXPECT_DOUBLE_EQ(back->power.totalW, stored.power.totalW);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
}

TEST(DiskRunCache, SurvivesReopen)
{
    TempDir tmp;
    ArchConfig cfg;
    cfg.mode = ArchMode::AluScalar;
    {
        DiskRunCache cache(tmp.path);
        ASSERT_TRUE(cache.store("HS", cfg, makeResult("HS", 777)));
    }
    DiskRunCache reopened(tmp.path);
    const std::optional<RunResult> back = reopened.load("HS", cfg);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->ev.cycles, 777u);
}

TEST(DiskRunCache, DifferentConfigsMiss)
{
    TempDir tmp;
    DiskRunCache cache(tmp.path);
    ArchConfig a, b;
    b.warpSize = 64;
    ASSERT_TRUE(cache.store("BT", a, makeResult("BT", 1)));
    EXPECT_TRUE(cache.load("BT", a).has_value());
    EXPECT_FALSE(cache.load("BT", b).has_value());
    EXPECT_FALSE(cache.load("HS", a).has_value());
}

TEST(DiskRunCache, CorruptRecordIsRejectedAndQuarantined)
{
    TempDir tmp;
    DiskRunCache cache(tmp.path);
    ArchConfig cfg;
    ASSERT_TRUE(cache.store("BT", cfg, makeResult("BT", 42)));

    const std::vector<fs::path> files = recordFiles(tmp.path);
    ASSERT_EQ(files.size(), 1u);

    // Flip one payload byte: the checksum must catch it, the load must
    // miss, and the poisoned file must move to quarantine/ (kept for
    // post-mortems, out of the lookup path).
    {
        std::fstream f(files[0],
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(12);
        char c = 0;
        f.seekg(12);
        f.get(c);
        f.seekp(12);
        f.put(char(c ^ 0x40));
    }
    EXPECT_FALSE(cache.load("BT", cfg).has_value());
    EXPECT_GE(cache.stats().rejects, 1u);
    EXPECT_GE(cache.stats().quarantined, 1u);
    EXPECT_TRUE(recordFiles(tmp.path).empty());
    EXPECT_EQ(quarantinedFiles(cache), 1u);

    // A clean re-store repairs the entry; the quarantined copy stays.
    ASSERT_TRUE(cache.store("BT", cfg, makeResult("BT", 42)));
    EXPECT_TRUE(cache.load("BT", cfg).has_value());
    EXPECT_EQ(quarantinedFiles(cache), 1u);
}

TEST(DiskRunCache, TruncatedRecordIsRejected)
{
    TempDir tmp;
    DiskRunCache cache(tmp.path);
    ArchConfig cfg;
    ASSERT_TRUE(cache.store("BT", cfg, makeResult("BT", 42)));
    const std::vector<fs::path> files = recordFiles(tmp.path);
    ASSERT_EQ(files.size(), 1u);
    fs::resize_file(files[0], fs::file_size(files[0]) / 2);
    EXPECT_FALSE(cache.load("BT", cfg).has_value());
    EXPECT_GE(cache.stats().quarantined, 1u);
    EXPECT_TRUE(recordFiles(tmp.path).empty());
    EXPECT_EQ(quarantinedFiles(cache), 1u);
}

TEST(DiskRunCache, EmbeddedConfigIsAuthoritative)
{
    // Simulate a fingerprint collision: a record stored for config A
    // copied onto the path for config B. The load must notice the
    // embedded config differs and reject rather than return A's result.
    TempDir tmp;
    DiskRunCache cache(tmp.path);
    ArchConfig a, b;
    b.seed = 999;
    ASSERT_TRUE(cache.store("BT", a, makeResult("BT", 42)));
    ASSERT_TRUE(cache.store("BT", b, makeResult("BT", 43)));

    std::vector<fs::path> files = recordFiles(tmp.path);
    ASSERT_EQ(files.size(), 2u);
    // Overwrite each record with the other's bytes; both loads must now
    // reject (the embedded config no longer matches the request).
    fs::copy_file(files[0], files[1],
                  fs::copy_options::overwrite_existing);
    const std::optional<RunResult> ra = cache.load("BT", a);
    const std::optional<RunResult> rb = cache.load("BT", b);
    // Exactly one of the two paths now holds the wrong config's record.
    EXPECT_TRUE(!ra.has_value() || !rb.has_value());
    EXPECT_GE(cache.stats().rejects, 1u);
}

TEST(DiskRunCache, LruEvictionKeepsRecentRecords)
{
    TempDir tmp;
    // Records are a few hundred bytes; cap to roughly three of them.
    DiskRunCache cache(tmp.path, 3 * 600);
    ArchConfig cfg;
    const char *abbrs[] = {"AA", "BB", "CC", "DD", "EE", "FF"};
    for (const char *a : abbrs) {
        ASSERT_TRUE(cache.store(a, cfg, makeResult(a, 1)));
        // Distinct mtimes so LRU order is well defined even on
        // coarse-grained filesystems.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_GE(cache.stats().evictions, 1u);
    const std::size_t kept = recordFiles(tmp.path).size();
    EXPECT_LT(kept, 6u);
    EXPECT_GE(kept, 1u);
    // The newest record must have survived the sweep.
    EXPECT_TRUE(cache.load("FF", cfg).has_value());
    // The oldest must be the first casualty.
    EXPECT_FALSE(cache.load("AA", cfg).has_value());
}

TEST(DiskRunCache, QuarantineDirIsLruCapped)
{
    TempDir tmp;
    ArchConfig cfg;
    // Store with no size cap so the live records all land...
    {
        DiskRunCache cache(tmp.path, 0);
        for (const char *a : {"AA", "BB", "CC", "DD"})
            ASSERT_TRUE(cache.store(a, cfg, makeResult(a, 1)));
    }
    // ...then rot every one of them on disk.
    const std::vector<fs::path> files = recordFiles(tmp.path);
    ASSERT_EQ(files.size(), 4u);
    for (const fs::path &p : files) {
        std::fstream f(p,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(12);
        char c = 0;
        f.seekg(12);
        f.get(c);
        f.seekp(12);
        f.put(char(c ^ 0x40));
    }

    healthCounters().reset();
    // Reopen with a cap smaller than the pile: each rejected load
    // quarantines its record, and the quarantine sweep keeps the
    // post-mortem directory LRU-bounded instead of growing without
    // bound under a flaky disk.
    DiskRunCache capped(tmp.path, 600);
    for (const char *a : {"AA", "BB", "CC", "DD"}) {
        EXPECT_FALSE(capped.load(a, cfg).has_value());
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(capped.stats().quarantined, 4u);
    EXPECT_GE(capped.stats().quarantineEvictions, 1u);
    EXPECT_LT(quarantinedFiles(capped), 4u);
    EXPECT_GE(healthCounters().snapshot().quarantineEvictions, 1u);
    healthCounters().reset();
}

TEST(DiskRunCache, UnlimitedSizeNeverEvicts)
{
    TempDir tmp;
    DiskRunCache cache(tmp.path, 0);
    ArchConfig cfg;
    for (const char *a : {"AA", "BB", "CC", "DD"})
        ASSERT_TRUE(cache.store(a, cfg, makeResult(a, 1)));
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(recordFiles(tmp.path).size(), 4u);
}

TEST(DiskRunCache, FromEnvHonoursGsCacheDir)
{
    TempDir tmp;
    ::setenv("GS_CACHE_DIR", tmp.path.c_str(), 1);
    std::unique_ptr<DiskRunCache> cache = DiskRunCache::fromEnv();
    ::unsetenv("GS_CACHE_DIR");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->dir(), tmp.path);
}

TEST(DiskRunCache, FromEnvParsesGsCacheMaxMb)
{
    TempDir tmp;
    ::setenv("GS_CACHE_DIR", tmp.path.c_str(), 1);
    ::setenv("GS_CACHE_MAX_MB", "3", 1);
    EXPECT_EQ(DiskRunCache::fromEnv()->maxBytes(), 3ull * 1024 * 1024);
    ::setenv("GS_CACHE_MAX_MB", "0", 1);
    EXPECT_EQ(DiskRunCache::fromEnv()->maxBytes(), 0u) << "0 = unlimited";
    // Negative, non-numeric, overflowing (2^44 MB wraps in bytes, 2^64
    // in strtoull) and non-finite values warn and keep the default.
    for (const char *bad :
         {"-1", " -1", "+5", "12mb", "nope", "inf", "nan", "1e300",
          "17592186044416", "18446744073709551616"}) {
        ::setenv("GS_CACHE_MAX_MB", bad, 1);
        EXPECT_EQ(DiskRunCache::fromEnv()->maxBytes(),
                  DiskRunCache::kDefaultMaxBytes)
            << bad;
    }
    ::unsetenv("GS_CACHE_MAX_MB");
    ::unsetenv("GS_CACHE_DIR");
}

TEST(DiskRunCache, FromEnvDefaultsToDisabled)
{
    ::unsetenv("GS_CACHE_DIR");
    EXPECT_EQ(DiskRunCache::fromEnv(false), nullptr);
    // Opt-in (--cache) without GS_CACHE_DIR lands at the default dir.
    EXPECT_FALSE(DiskRunCache::defaultCacheDir().empty());
}
