/**
 * @file
 * Content-addressed on-disk run cache. PR 1's in-process run cache dies
 * with the process; this one persists (workload x ArchConfig) results
 * under a cache directory so every later driver, CI job or gscalard
 * instance reloads them instead of re-simulating.
 *
 * Layout: one file per run at `<dir>/v<schema>/<abbr>-<fp>.run`, where
 * fp is ArchConfig::fingerprint() in hex. The fingerprint only locates
 * the file; each record embeds the full serialized ArchConfig, and a
 * load compares it byte-for-byte against the requested configuration —
 * a fingerprint collision or a stale hash function can therefore never
 * return the wrong result. Records are serial.hpp blobs, so truncation
 * or bit rot fails the checksum and the record is rejected — moved to
 * `<dir>/quarantine/` for post-mortem rather than silently unlinked —
 * and the caller recomputes (a cache may always miss; it must never
 * lie).
 *
 * Writes go to a temp file in the same directory followed by an atomic
 * rename, so concurrent processes never observe half-written records.
 * A size-capped LRU sweep (mtime is bumped on every hit) keeps the
 * directory under maxBytes.
 */

#ifndef GSCALAR_STORE_RUN_CACHE_HPP
#define GSCALAR_STORE_RUN_CACHE_HPP

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/config.hpp"
#include "harness/runner.hpp"

namespace gs
{

/** Observability counters of one DiskRunCache. */
struct DiskCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t rejects = 0;   ///< corrupt/mismatched records discarded
    std::uint64_t evictions = 0; ///< files removed by the LRU sweep
    std::uint64_t quarantined = 0; ///< rejected records moved aside
    std::uint64_t publishFailures = 0; ///< stores that failed to land
    std::uint64_t quarantineEvictions = 0; ///< quarantined files LRU-evicted
};

class DiskRunCache
{
  public:
    /** Bump when the record layout changes; lives in the directory name
     *  so old and new builds never read each other's files. */
    static constexpr unsigned kSchemaVersion = 1;

    /** Default size cap (bytes) when GS_CACHE_MAX_MB is not set. */
    static constexpr std::uint64_t kDefaultMaxBytes =
        512ull * 1024 * 1024;

    /**
     * Open (creating if needed) a cache rooted at @p dir. @p maxBytes
     * caps the total size of cached records; 0 means unlimited.
     */
    explicit DiskRunCache(std::string dir,
                          std::uint64_t maxBytes = kDefaultMaxBytes);

    /**
     * Environment-driven construction: returns a cache rooted at
     * $GS_CACHE_DIR when set and non-empty; otherwise, when
     * @p useDefaultDir is true (the --cache flag), at
     * defaultCacheDir(); otherwise nullptr (persistent caching is
     * opt-in). $GS_CACHE_MAX_MB overrides the size cap.
     */
    static std::unique_ptr<DiskRunCache>
    fromEnv(bool useDefaultDir = false);

    /** `$XDG_CACHE_HOME/gscalar` or `~/.cache/gscalar`. */
    static std::string defaultCacheDir();

    /**
     * Load the cached result for (abbr, cfg). Returns nullopt on miss
     * or on any malformed/mismatched record (which is quarantined).
     */
    std::optional<RunResult> load(const std::string &abbr,
                                  const ArchConfig &cfg);

    /**
     * Persist @p result for (abbr, cfg); returns false on I/O error.
     * Failed publishes are counted (stats().publishFailures) and the
     * first one per cache is logged; the cache stays usable.
     */
    bool store(const std::string &abbr, const ArchConfig &cfg,
               const RunResult &result);

    /**
     * Delete least-recently-used records until the cache fits the size
     * cap. Runs automatically after each store.
     */
    void sweep();

    /**
     * Apply the same LRU byte cap to quarantineDir(): a flaky disk (or
     * an armed store:bit-flip campaign) must not grow the post-mortem
     * pile without bound. Runs automatically after each quarantine;
     * evictions are counted in stats().quarantineEvictions and the
     * quarantine_evictions health counter.
     */
    void sweepQuarantine();

    /** Root directory (as given, before the schema subdirectory). */
    const std::string &dir() const { return dir_; }

    /** Size cap of cached records in bytes; 0 means unlimited. */
    std::uint64_t maxBytes() const { return maxBytes_; }

    /** Where rejected records are moved: `<dir>/quarantine`. */
    std::string quarantineDir() const;

    DiskCacheStats stats() const;

  private:
    std::string recordPath(const std::string &abbr,
                           const ArchConfig &cfg) const;

    /** Move a rejected record into quarantineDir() (remove on error). */
    void quarantine(const std::filesystem::path &path,
                    const std::string &why);

    /** LRU-evict files in @p dir until it fits maxBytes_; returns the
     *  number removed. @p runFilesOnly skips non-`.run` names. */
    std::uint64_t sweepDir(const std::string &dir, bool runFilesOnly);

    /** Count (and log once) a store that failed to land. */
    bool publishFailed(const std::filesystem::path &tmp,
                       const std::string &why);

    std::string dir_;       ///< cache root
    std::string schemaDir_; ///< dir_/v<kSchemaVersion>
    std::uint64_t maxBytes_;

    mutable std::mutex mutex_; ///< guards stats_ and tmp naming
    DiskCacheStats stats_;
    std::uint64_t tmpCounter_ = 0;
    bool warnedPublish_ = false; ///< first publish failure logs; rest count
};

} // namespace gs

#endif // GSCALAR_STORE_RUN_CACHE_HPP
