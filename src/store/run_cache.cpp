#include "run_cache.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "serial.hpp"

namespace fs = std::filesystem;

namespace gs
{

namespace
{

// Cache-record field tags (BlobKind::CacheEntry).
constexpr std::uint16_t kEntryConfig = 1;
constexpr std::uint16_t kEntryResult = 2;

std::optional<std::vector<std::uint8_t>>
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::vector<std::uint8_t> buf(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad())
        return std::nullopt;
    return buf;
}

} // namespace

DiskRunCache::DiskRunCache(std::string dir, std::uint64_t maxBytes)
    : dir_(std::move(dir)), maxBytes_(maxBytes)
{
    schemaDir_ =
        (fs::path(dir_) / ("v" + std::to_string(kSchemaVersion))).string();
    std::error_code ec;
    fs::create_directories(schemaDir_, ec);
    if (ec)
        GS_WARN("cannot create cache directory ", schemaDir_, ": ",
                ec.message(), " (persistent cache disabled for writes)");
}

std::string
DiskRunCache::defaultCacheDir()
{
    if (const char *xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg)
        return (fs::path(xdg) / "gscalar").string();
    if (const char *home = std::getenv("HOME"); home && *home)
        return (fs::path(home) / ".cache" / "gscalar").string();
    return "/tmp/gscalar-cache";
}

std::unique_ptr<DiskRunCache>
DiskRunCache::fromEnv(bool useDefaultDir)
{
    std::string dir;
    if (const char *env = std::getenv("GS_CACHE_DIR"); env && *env)
        dir = env;
    else if (useDefaultDir)
        dir = defaultCacheDir();
    else
        return nullptr;

    std::uint64_t maxBytes = kDefaultMaxBytes;
    if (const char *env = std::getenv("GS_CACHE_MAX_MB"); env && *env) {
        const std::optional<std::uint64_t> mb =
            parseDecimal(env, 0, UINT64_MAX / (1024 * 1024));
        if (mb)
            maxBytes = *mb * 1024 * 1024; // 0 => unlimited
        else
            GS_WARN("ignoring GS_CACHE_MAX_MB='", env,
                    "' (want a whole number of MB below 2^44)");
    }
    return std::make_unique<DiskRunCache>(dir, maxBytes);
}

std::string
DiskRunCache::recordPath(const std::string &abbr,
                         const ArchConfig &cfg) const
{
    std::ostringstream name;
    name << abbr << '-' << std::hex << cfg.fingerprint() << ".run";
    return (fs::path(schemaDir_) / name.str()).string();
}

std::optional<RunResult>
DiskRunCache::load(const std::string &abbr, const ArchConfig &cfg)
{
    const fs::path path = recordPath(abbr, cfg);
    const auto buf = readFile(path);
    if (!buf) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        return std::nullopt;
    }

    auto reject = [&](const std::string &why) {
        quarantine(path, why);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.rejects;
        ++stats_.misses;
        return std::optional<RunResult>();
    };

    ByteReader r(buf->data(), buf->size(), BlobKind::CacheEntry);
    const std::uint8_t *cfgBlob = nullptr, *resBlob = nullptr;
    std::size_t cfgLen = 0, resLen = 0;
    r.getBlob(kEntryConfig, cfgBlob, cfgLen);
    r.getBlob(kEntryResult, resBlob, resLen);
    if (!r.ok())
        return reject(r.error());
    if (!cfgBlob || !resBlob)
        return reject("missing config/result field");

    // The fingerprint in the file name only routed us here; the
    // embedded config is the authoritative key.
    const std::vector<std::uint8_t> want = serializeConfig(cfg);
    if (cfgLen != want.size() ||
        !std::equal(cfgBlob, cfgBlob + cfgLen, want.begin()))
        return reject("stored configuration differs from requested one");

    std::string err;
    std::optional<RunResult> res = deserializeResult(resBlob, resLen, &err);
    if (!res)
        return reject(err);

    // Bump mtime so the LRU sweep sees this record as recently used.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);

    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return res;
}

bool
DiskRunCache::store(const std::string &abbr, const ArchConfig &cfg,
                    const RunResult &result)
{
    ByteWriter w(BlobKind::CacheEntry);
    w.fieldBlob(kEntryConfig, serializeConfig(cfg));
    w.fieldBlob(kEntryResult, serializeResult(result));
    const std::vector<std::uint8_t> blob = w.finish();

    std::uint64_t nonce;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        nonce = ++tmpCounter_;
    }
    const fs::path path = recordPath(abbr, cfg);
    const fs::path tmp =
        fs::path(schemaDir_) / (".tmp-" + std::to_string(::getpid()) + "-" +
                                std::to_string(nonce));
    const bool shortWrite = injectFault("store", FaultKind::ShortWrite);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return publishFailed(tmp, "cannot open " + tmp.string());
        const std::size_t n = shortWrite ? blob.size() / 2 : blob.size();
        out.write(reinterpret_cast<const char *>(blob.data()),
                  std::streamsize(n));
        if (!out.good())
            return publishFailed(tmp, "write to " + tmp.string() +
                                          " failed");
    }
    if (shortWrite)
        return publishFailed(tmp, "short write to " + tmp.string() +
                                      " (injected)");

    if (injectFault("store", FaultKind::BitFlip)) {
        // Corrupt one payload bit post-write: the published record must
        // later trip the FNV-1a checksum and land in quarantine.
        std::fstream flip(tmp,
                          std::ios::binary | std::ios::in | std::ios::out);
        char byte = 0;
        const std::streamoff off = std::streamoff(blob.size() / 2);
        flip.seekg(off);
        flip.get(byte);
        byte = char(byte ^ 0x01);
        flip.seekp(off);
        flip.put(byte);
    }

    std::error_code ec;
    if (injectFault("store", FaultKind::RenameFail))
        ec = std::make_error_code(std::errc::io_error);
    else
        fs::rename(tmp, path, ec); // atomic within one directory
    if (ec) {
        return publishFailed(tmp, "rename " + tmp.string() + " -> " +
                                      path.string() + ": " + ec.message());
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.stores;
    }
    sweep();
    return true;
}

std::string
DiskRunCache::quarantineDir() const
{
    return (fs::path(dir_) / "quarantine").string();
}

void
DiskRunCache::quarantine(const fs::path &path, const std::string &why)
{
    const fs::path qdir = quarantineDir();
    std::error_code ec;
    fs::create_directories(qdir, ec);
    const fs::path dest = qdir / path.filename();
    if (!ec)
        fs::rename(path, dest, ec);
    if (ec) {
        // Can't move it aside; removal still protects future loads.
        std::error_code rmEc;
        fs::remove(path, rmEc);
        GS_WARN("discarding cache record ", path.string(), ": ", why,
                " (quarantine failed: ", ec.message(), ")");
    } else {
        GS_WARN("quarantined cache record ", path.string(), " -> ",
                dest.string(), ": ", why);
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.quarantined;
    }
    healthCounters().cacheQuarantines.fetch_add(1,
                                                std::memory_order_relaxed);
    sweepQuarantine();
}

bool
DiskRunCache::publishFailed(const fs::path &tmp, const std::string &why)
{
    std::error_code ec;
    fs::remove(tmp, ec);
    bool firstFailure = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.publishFailures;
        firstFailure = !warnedPublish_;
        warnedPublish_ = true;
    }
    // One line per cache, not per failure: a full disk would otherwise
    // turn every store into a log line.
    if (firstFailure)
        GS_WARN("cache publish failed: ", why,
                " (counted; further failures on this cache are silent)");
    healthCounters().cachePublishFailures.fetch_add(
        1, std::memory_order_relaxed);
    return false;
}

std::uint64_t
DiskRunCache::sweepDir(const std::string &dir, bool runFilesOnly)
{
    if (maxBytes_ == 0)
        return 0;

    struct Entry
    {
        fs::path path;
        std::uint64_t bytes;
        fs::file_time_type mtime;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;

    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (!it->is_regular_file(ec))
            continue;
        const fs::path p = it->path();
        if (runFilesOnly && p.extension() != ".run")
            continue; // leave temp files to their writers
        Entry e{p, it->file_size(ec), it->last_write_time(ec)};
        if (ec)
            continue;
        total += e.bytes;
        entries.push_back(std::move(e));
    }
    if (total <= maxBytes_)
        return 0;

    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime < b.mtime;
              });
    std::uint64_t evicted = 0;
    for (const Entry &e : entries) {
        if (total <= maxBytes_)
            break;
        std::error_code rmEc;
        if (fs::remove(e.path, rmEc)) {
            total -= e.bytes;
            ++evicted;
        }
    }
    return evicted;
}

void
DiskRunCache::sweep()
{
    const std::uint64_t evicted = sweepDir(schemaDir_, true);
    if (evicted) {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.evictions += evicted;
    }
}

void
DiskRunCache::sweepQuarantine()
{
    const std::uint64_t evicted = sweepDir(quarantineDir(), false);
    if (!evicted)
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.quarantineEvictions += evicted;
    }
    healthCounters().quarantineEvictions.fetch_add(
        evicted, std::memory_order_relaxed);
}

DiskCacheStats
DiskRunCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace gs
