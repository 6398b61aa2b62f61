/**
 * @file
 * Parallel experiment engine: a fixed-size worker pool fanning out
 * (workload x ArchConfig) simulations, plus a memoizing run cache so
 * drivers sharing a configuration (Figs. 1/8/9/10 all consume the one
 * baseline classification run) simulate each benchmark once per
 * process. Results are returned in deterministic suite order
 * regardless of completion order: every simulation owns a private
 * `Gpu`, so a run's counters depend only on (workload, config), never
 * on scheduling.
 */

#ifndef GSCALAR_HARNESS_ENGINE_HPP
#define GSCALAR_HARNESS_ENGINE_HPP

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "obs/stats.hpp"
#include "runner.hpp"
#include "store/run_cache.hpp"

namespace gs
{

/** Priority bands of the engine's run queue; the highest pops first. */
inline constexpr std::uint32_t kNumPriorities = 3;

/** Band of in-process callers and of requests that name none. */
inline constexpr std::uint32_t kDefaultPriority = 1;

/**
 * Fixed-size worker pool: a task queue drained by `jobs` std::threads.
 * The queue has kNumPriorities bands; the highest non-empty band pops
 * first and each band is FIFO. Tasks are plain closures; ordering
 * across tasks is unspecified, so anything submitted must be
 * independent (each simulation is).
 */
class WorkerPool
{
  public:
    /** @param jobs worker threads; 0 selects defaultJobs(). */
    explicit WorkerPool(unsigned jobs = 0);

    /** Drains the queue, then joins every worker. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Enqueue @p fn at the back of @p band; a non-null @p tag names
     *  the task for raise() and evictBelow(). */
    void submit(std::function<void()> fn,
                std::uint32_t band = kDefaultPriority,
                std::shared_ptr<void> tag = nullptr);

    /** Move the task tagged @p tag to the back of @p band if it still
     *  waits in a lower one. */
    void raise(const void *tag, std::uint32_t band);

    /** Drop the newest task of the lowest non-empty band below @p band
     *  and return its tag; nullptr when those bands are empty. */
    std::shared_ptr<void> evictBelow(std::uint32_t band);

    /** Number of worker threads. */
    unsigned jobs() const { return unsigned(threads_.size()); }

    /** Tasks queued (not yet picked up), in total and per band, and
     *  the peaks of both since construction. */
    struct Depths
    {
        std::size_t total = 0, peak = 0;
        std::array<std::size_t, kNumPriorities> bands{}, bandPeaks{};
    };
    Depths depths() const;

    /**
     * Pool size used when none is requested: the GS_JOBS environment
     * variable if parseJobsValue() accepts it, else (with a warning if
     * it was set) std::thread::hardware_concurrency() (min 1).
     */
    static unsigned defaultJobs();

  private:
    struct Task
    {
        std::function<void()> fn;
        std::shared_ptr<void> tag;
    };

    void workerLoop();

    std::vector<std::thread> threads_;
    std::array<std::deque<Task>, kNumPriorities> queue_;
    Depths depths_; ///< bands[] unused: queue_ holds those
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/** Hit/miss counters of the memoizing run cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    /** Runs scheduled, less those shed from the queue unrun. */
    std::uint64_t misses = 0;
    /** Of the misses, how many were answered by the persistent disk
     *  cache instead of a simulation. */
    std::uint64_t diskHits = 0;
    std::uint64_t diskStores = 0; ///< fresh results persisted to disk
    std::uint64_t runRetries = 0;  ///< runs retried after a failure
    std::uint64_t runFailures = 0; ///< runs failed even after the retry
    /** Runs executed inline on the caller after the pool degraded. */
    std::uint64_t serialFallbacks = 0;
};

/**
 * Point-in-time view of the engine's self-metrics: pool geometry,
 * cache counters, aggregate simulation throughput, and per-phase wall
 * clock. The daemon's `stats` response and the bench stderr summary
 * are both rendered from this.
 */
struct EngineSnapshot
{
    unsigned jobs = 0;
    std::size_t queueDepth = 0;
    std::size_t peakQueueDepth = 0;
    std::array<std::size_t, kNumPriorities> bandDepths{};
    std::array<std::size_t, kNumPriorities> bandPeaks{};
    bool degraded = false; ///< pool bypassed after repeated failures
    CacheStats cache;
    double wallSumSeconds = 0; ///< summed per-run simulate wall clock
    std::uint64_t simCycles = 0;
    std::uint64_t warpInsts = 0;
    std::vector<PhaseTimers::Entry> phases;
};

/** How ExperimentEngine::submitAsync() placed a request. */
enum class Admission
{
    Refused, ///< queue full and nothing lower to evict; no callback
    Started, ///< a new run was queued
    Joined,  ///< joined a run still queued or computing
    Cached,  ///< a finished run answered it; the callback already ran
};

/**
 * submitAsync()'s completion callback: the shared result, or nullptr
 * when the queued run was shed for a higher band. Runs on a worker (on
 * the submitter for a memo hit), never under an engine lock, and may
 * fire after the submitter is gone.
 */
using RunCallback = std::function<void(const RunResult *)>;

/**
 * Worker pool + memoizing run cache. Simulations are keyed by
 * (workload abbreviation, ArchConfig::fingerprint()); a second request
 * for the same key joins the first run instead of re-simulating —
 * including while the first is still queued or computing. This is the
 * only in-flight dedup layer: gscalard submits straight into it.
 *
 * The cache assumes default EnergyParams (every experiment driver uses
 * them); runs needing custom energy parameters should call
 * runWorkload() directly.
 */
class ExperimentEngine
{
  public:
    /** Consecutive run failures before degrading to serial execution. */
    static constexpr unsigned kDegradeThreshold = 3;

    /** @param jobs worker threads; 0 selects WorkerPool::defaultJobs(). */
    explicit ExperimentEngine(unsigned jobs = 0);

    /** Schedule one run (or join the cached one); non-blocking. */
    std::shared_future<RunResult> submit(const Workload &w,
                                         const ArchConfig &cfg);

    /** Schedule by name; a worker builds the workload, a cache hit
     *  builds nothing. An unknown name is fatal here, on the caller. */
    std::shared_future<RunResult> submit(const std::string &abbr,
                                         const ArchConfig &cfg);

    /**
     * gscalard's entry point. A finished run calls @p done at once; a
     * run in flight adds @p done to its waiters and, if @p band is
     * higher, raises its queued task to it (priority inheritance); a
     * new key queues a run in @p band, built and simulated on a worker.
     * With @p maxQueued > 0 runs queued, a new key evicts the newest
     * queued run of the lowest band below @p band (its waiters get
     * nullptr, its cache entry is erased, it is no miss) or is Refused.
     * Never simulates on the caller, not even when degraded(): a
     * degraded engine still queues these on its pool, so an event loop
     * never stalls. A name workloadResolvable() rejects completes with
     * its error.
     */
    Admission submitAsync(const std::string &abbr, const ArchConfig &cfg,
                          std::uint32_t band, std::size_t maxQueued,
                          RunCallback done);

    /** Blocking convenience: submit and wait. */
    RunResult run(const Workload &w, const ArchConfig &cfg);

    /** Blocking convenience by abbreviation. */
    RunResult run(const std::string &abbr, const ArchConfig &cfg);

    /** Fan out every suite workload under @p cfg; non-blocking. */
    std::vector<std::shared_future<RunResult>>
    submitSuite(const ArchConfig &cfg);

    /**
     * Run the whole suite under @p cfg and return results in Table 2
     * suite order (deterministic regardless of completion order).
     */
    std::vector<RunResult> runSuite(const ArchConfig &cfg);

    /** Cache hit/miss counters so far. */
    CacheStats cacheStats() const;

    /** Self-metrics snapshot (pool, cache, throughput, phases). */
    EngineSnapshot snapshot() const;

    /**
     * Wall-clock accounting per harness phase ("simulate",
     * "disk-cache-load", "disk-cache-store"); workers add to it, the
     * snapshot reports it.
     */
    PhaseTimers &phaseTimers() { return phases_; }

    /** Drop every in-memory cached result (tests use this); the
     *  persistent disk cache, when attached, is left untouched. */
    void clearCache();

    /**
     * Attach a persistent disk cache (store/run_cache.hpp): misses then
     * try the cache before simulating, and fresh results are written
     * back, so runs survive across processes. Pass nullptr to detach.
     * Call before submitting work — the engine does not lock around
     * the pointer swap itself.
     */
    void setDiskCache(std::unique_ptr<DiskRunCache> cache);

    /** Attached disk cache, or nullptr. */
    DiskRunCache *diskCache() const { return disk_.get(); }

    /** Worker thread count. */
    unsigned jobs() const { return pool_.jobs(); }

    /**
     * Whether the engine has degraded to serial execution: after
     * kDegradeThreshold consecutive run failures, new blocking
     * submissions run inline on the caller thread instead of the pool
     * for the rest of the process (the last rung of the degradation
     * ladder — prefer a slow answer over a wedged pool). A launch the
     * config cannot host (LaunchDoesNotFit) fails without a retry and
     * does not count.
     */
    bool degraded() const
    {
        return degraded_.load(std::memory_order_relaxed);
    }

    /**
     * One-line observability report: simulations run, cache hits,
     * aggregate simulated cycles and warp instructions, and the
     * throughput achieved (sim-cycles/sec and warp-insts/sec of CPU
     * time spent simulating). Harness binaries print this to stderr so
     * stdout tables stay byte-identical across -j levels.
     */
    std::string statsSummary() const;

  private:
    /** One cache entry: a run queued, computing or finished. */
    struct Run;

    /** The one admission path of every submit flavour; @p out set
     *  means a blocking caller. Null @p prebuilt: build by name. */
    Admission admit(const std::string &name, const ArchConfig &cfg,
                    const Workload *prebuilt,
                    std::uint32_t band, std::size_t maxQueued,
                    RunCallback done, std::shared_ptr<Run> *out);

    /** Emit one GS_VERBOSE timing line through the mutexed obs sink. */
    void noteRun(const std::string &workload, const ArchConfig &cfg,
                 double seconds, const char *how) const;

    /**
     * The whole lifecycle of one scheduled run: disk-cache probe,
     * build and simulation with retry-once (the retry under a
     * fault-injection Suppress guard — injected faults are transient by
     * contract), error capture into the RunResult, and write-back.
     * Never lets an exception escape: one bad run must not poison the
     * suite.
     */
    void executeRun(Run &run);

    /** Publish @p r as @p run's result: future first, then waiters. */
    void finish(Run &run, RunResult r);

    /** One simulation attempt, with the engine fault hooks applied. */
    RunResult simulateOnce(const Workload &w, const ArchConfig &cfg);

    std::unique_ptr<DiskRunCache> disk_;
    std::atomic<unsigned> consecutiveFailures_{0};
    std::atomic<bool> degraded_{false};

    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<Run>> cache_;
    CacheStats stats_;
    double wallSumSeconds_ = 0; ///< summed per-run wall clock
    std::uint64_t simCycles_ = 0;
    std::uint64_t warpInsts_ = 0;
    PhaseTimers phases_;
    bool verbose_ = false; ///< GS_VERBOSE: per-run timing lines

    /** Last member, so it is destroyed first: its destructor drains
     *  the queue while everything a run touches is still alive. */
    WorkerPool pool_;
};

/**
 * Process-wide engine shared by every experiment driver, so separate
 * figures reuse each other's runs (e.g. Figs. 1/8/9/10 share the one
 * baseline classification sweep).
 */
ExperimentEngine &defaultEngine();

/**
 * Set the worker count used when defaultEngine() is first constructed.
 * Call before any driver runs (harness mains do this while parsing
 * --jobs/-j); ignored once the engine exists.
 */
void setDefaultJobs(unsigned jobs);

/**
 * Make defaultEngine() attach a persistent disk cache at its default
 * directory even when GS_CACHE_DIR is unset (the --cache flag).
 * Ignored once the engine exists.
 */
void setDefaultCacheEnabled(bool enabled);

/**
 * Strict positive-integer parse for --jobs/-j/GS_JOBS values: the whole
 * string must be digits and the value in [1, 4096]. Empty optional on
 * anything else — callers reject with a clear error instead of
 * silently falling back to a default.
 */
std::optional<unsigned> parseJobsValue(const std::string &s);

/**
 * Start-up check shared by every entry point (initHarness, gscalar,
 * gscalard): GS_JOBS must pass parseJobsValue(), $GS_SIM_THREADS gets
 * ignoreSimThreads()'s warning, and GS_FAULT / GS_CODEC are resolved
 * now rather than at first use. Malformed values are fatal, also
 * when a flag (--codec, --fault) overrides the variable.
 */
void checkStartupEnv();

/**
 * Whether @p arg is one of the process-wide flags initHarness()
 * applies (--jobs/-j, --codec, --cache, --fault[=], --sim-threads),
 * and if so how many values follow it (0 or 1).
 */
std::optional<int> processFlagValues(std::string_view arg);

/**
 * Standard harness-binary prologue: silence warn()/inform(), honour
 * trailing `--jobs N` / `-j N` (worker-pool size), `--codec NAME` (RF
 * compression codec; common/codec_id.hpp), `--cache` (persistent run
 * cache at $GS_CACHE_DIR or the default cache directory) and
 * `--fault SPEC` flags, then run checkStartupEnv(). Malformed values
 * are fatal with a clear message, never silently defaulted. The
 * retired intra-run threading setting goes to ignoreSimThreads().
 */
void initHarness(int argc, char **argv);

/**
 * The retired intra-run SM threading setting, accepted for one more
 * release and ignored. Call it with @p flagGiven true where a
 * `--sim-threads N` flag was consumed, and with false at start-up to
 * look for $GS_SIM_THREADS. When either is set it prints one warning
 * per process to stderr (even in quiet mode) and does nothing else.
 */
void ignoreSimThreads(bool flagGiven);

} // namespace gs

#endif // GSCALAR_HARNESS_ENGINE_HPP
