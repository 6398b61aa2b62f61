#include "engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/codec_id.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"

namespace gs
{

// ---------------------------------------------------------------- WorkerPool

WorkerPool::WorkerPool(unsigned jobs)
{
    if (jobs == 0)
        jobs = defaultJobs();
    threads_.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
WorkerPool::submit(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        GS_ASSERT(!stop_, "submit() on a stopped worker pool");
        queue_.push_back(std::move(fn));
        peakDepth_ = std::max(peakDepth_, queue_.size());
    }
    cv_.notify_one();
}

std::size_t
WorkerPool::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

std::size_t
WorkerPool::peakQueueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return peakDepth_;
}

void
WorkerPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

unsigned
WorkerPool::defaultJobs()
{
    if (const char *env = std::getenv("GS_JOBS")) {
        if (const std::optional<unsigned> v = parseJobsValue(env))
            return *v;
        GS_WARN("ignoring GS_JOBS='", env,
                "' (want an integer in [1, 4096])");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

// ---------------------------------------------------------- ExperimentEngine

namespace
{

std::string
cacheKey(const std::string &abbr, const ArchConfig &cfg)
{
    std::ostringstream os;
    os << abbr << '#' << std::hex << cfg.fingerprint();
    return os.str();
}

} // namespace

ExperimentEngine::ExperimentEngine(unsigned jobs) : pool_(jobs)
{
    // GS_VERBOSE: emit one timing line per completed run. The lines go
    // through the mutexed obs sink so concurrent workers never
    // interleave fragments.
    const char *v = std::getenv("GS_VERBOSE");
    verbose_ = v && *v && std::string(v) != "0";
}

std::shared_future<RunResult>
ExperimentEngine::submit(const Workload &w, const ArchConfig &cfg)
{
    const std::string key = cacheKey(w.name, cfg);

    std::shared_ptr<std::promise<RunResult>> promise;
    std::shared_future<RunResult> future;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            ++stats_.hits;
            return it->second;
        }
        ++stats_.misses;

        promise = std::make_shared<std::promise<RunResult>>();
        future = promise->get_future().share();
        cache_.emplace(key, future);
    }

    if (degraded()) {
        // Last rung of the degradation ladder: the pool has produced
        // kDegradeThreshold consecutive failures, so run inline on the
        // caller thread — slower, but a suite still completes.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.serialFallbacks;
        }
        healthCounters().serialFallbacks.fetch_add(
            1, std::memory_order_relaxed);
        executeRun(w, cfg, promise);
    } else {
        pool_.submit([this, promise, w, cfg] {
            executeRun(w, cfg, promise);
        });
    }
    return future;
}

RunResult
ExperimentEngine::simulateOnce(const Workload &w, const ArchConfig &cfg)
{
    if (injectFault("engine", FaultKind::Slow))
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (injectFault("engine", FaultKind::Throw))
        throw std::runtime_error("injected engine fault");
    ScopedPhase phase(phases_, "simulate");
    return runWorkload(w, cfg);
}

void
ExperimentEngine::executeRun(
    const Workload &w, const ArchConfig &cfg,
    const std::shared_ptr<std::promise<RunResult>> &promise)
{
    // The persistent cache is consulted on the worker, off the submit
    // path; a hit skips the simulation entirely and returns the stored
    // counters bit-for-bit.
    if (disk_) {
        std::optional<RunResult> r;
        {
            ScopedPhase phase(phases_, "disk-cache-load");
            r = disk_->load(w.name, cfg);
        }
        if (r) {
            {
                std::lock_guard<std::mutex> statsLock(mutex_);
                ++stats_.diskHits;
            }
            if (verbose_)
                noteRun(w.name, cfg, r->wallSeconds, "disk-cache");
            promise->set_value(std::move(*r));
            return;
        }
    }

    auto attempt = [&](std::string *err) -> std::optional<RunResult> {
        try {
            return simulateOnce(w, cfg);
        } catch (const std::exception &e) {
            *err = e.what();
        } catch (...) {
            *err = "unknown exception";
        }
        return std::nullopt;
    };

    std::string err;
    std::optional<RunResult> r = attempt(&err);
    if (!r) {
        {
            std::lock_guard<std::mutex> statsLock(mutex_);
            ++stats_.runRetries;
        }
        healthCounters().runRetries.fetch_add(1,
                                              std::memory_order_relaxed);
        GS_WARN("run ", w.name, " failed (", err, "); retrying once");
        // Injected faults are transient by contract: the retry runs
        // exempt from injection so a single armed fault class is
        // absorbed deterministically. Real faults may well recur.
        FaultInjector::Suppress guard;
        r = attempt(&err);
    }

    if (!r) {
        // Capture per-run instead of poisoning the shared future: the
        // rest of the suite still completes, callers see ok()==false.
        {
            std::lock_guard<std::mutex> statsLock(mutex_);
            ++stats_.runFailures;
        }
        healthCounters().runFailures.fetch_add(1,
                                               std::memory_order_relaxed);
        const unsigned fails =
            consecutiveFailures_.fetch_add(1, std::memory_order_relaxed) +
            1;
        if (fails >= kDegradeThreshold &&
            !degraded_.exchange(true, std::memory_order_relaxed))
            GS_WARN("degrading to serial execution after ", fails,
                    " consecutive run failures");
        GS_WARN("run ", w.name, " failed after retry: ", err);
        RunResult failed;
        failed.workload = w.name;
        failed.mode = cfg.mode;
        failed.error = err;
        promise->set_value(std::move(failed));
        return;
    }
    consecutiveFailures_.store(0, std::memory_order_relaxed);

    bool stored = false;
    if (disk_) {
        ScopedPhase phase(phases_, "disk-cache-store");
        stored = disk_->store(w.name, cfg, *r);
    }
    {
        std::lock_guard<std::mutex> statsLock(mutex_);
        if (stored)
            ++stats_.diskStores;
        wallSumSeconds_ += r->wallSeconds;
        simCycles_ += r->ev.cycles;
        warpInsts_ += r->ev.warpInsts;
    }
    if (verbose_)
        noteRun(w.name, cfg, r->wallSeconds, "simulate");
    promise->set_value(std::move(*r));
}

std::shared_future<RunResult>
ExperimentEngine::submit(const std::string &abbr, const ArchConfig &cfg)
{
    return submit(makeWorkload(abbr), cfg);
}

RunResult
ExperimentEngine::run(const Workload &w, const ArchConfig &cfg)
{
    return submit(w, cfg).get();
}

RunResult
ExperimentEngine::run(const std::string &abbr, const ArchConfig &cfg)
{
    return submit(abbr, cfg).get();
}

std::vector<std::shared_future<RunResult>>
ExperimentEngine::submitSuite(const ArchConfig &cfg)
{
    std::vector<std::shared_future<RunResult>> futures;
    for (const Workload &w : makeSuite())
        futures.push_back(submit(w, cfg));
    return futures;
}

std::vector<RunResult>
ExperimentEngine::runSuite(const ArchConfig &cfg)
{
    std::vector<RunResult> out;
    for (auto &f : submitSuite(cfg))
        out.push_back(f.get());
    return out;
}

CacheStats
ExperimentEngine::cacheStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
ExperimentEngine::noteRun(const std::string &workload,
                          const ArchConfig &cfg, double seconds,
                          const char *how) const
{
    std::ostringstream os;
    os << "run " << workload << " " << archModeName(cfg.mode) << " "
       << Table::num(seconds, 3) << "s (" << how << ")";
    stderrSink().writeLine(os.str());
}

EngineSnapshot
ExperimentEngine::snapshot() const
{
    EngineSnapshot s;
    s.jobs = pool_.jobs();
    s.queueDepth = pool_.queueDepth();
    s.peakQueueDepth = pool_.peakQueueDepth();
    s.degraded = degraded();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        s.cache = stats_;
        s.wallSumSeconds = wallSumSeconds_;
        s.simCycles = simCycles_;
        s.warpInsts = warpInsts_;
    }
    s.phases = phases_.entries();
    return s;
}

void
ExperimentEngine::clearCache()
{
    // Wait for in-flight runs so nobody holds a future we forget about.
    std::vector<std::shared_future<RunResult>> pending;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &[key, future] : cache_)
            pending.push_back(future);
    }
    for (auto &f : pending)
        f.wait();
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.clear();
}

void
ExperimentEngine::setDiskCache(std::unique_ptr<DiskRunCache> cache)
{
    disk_ = std::move(cache);
}

std::string
ExperimentEngine::statsSummary() const
{
    const EngineSnapshot s = snapshot();
    std::ostringstream os;
    os << "engine: " << (s.cache.misses - s.cache.diskHits)
       << " simulations (+" << s.cache.hits << " cache hits) on "
       << s.jobs << " worker(s)";
    if (s.peakQueueDepth > 0)
        os << ", peak queue " << s.peakQueueDepth;
    if (disk_)
        os << "; disk cache: " << s.cache.diskHits << " hits, "
           << s.cache.diskStores << " stores (" << disk_->dir() << ")";
    if (s.wallSumSeconds > 0) {
        os << "; " << s.simCycles << " sim-cycles, " << s.warpInsts
           << " warp-insts in " << Table::num(s.wallSumSeconds, 2)
           << "s CPU ("
           << Table::num(double(s.simCycles) / s.wallSumSeconds / 1e6, 1)
           << "M sim-cycles/s, "
           << Table::num(double(s.warpInsts) / s.wallSumSeconds / 1e6, 2)
           << "M warp-insts/s)";
    }
    if (!s.phases.empty()) {
        os << "; phases: ";
        bool first = true;
        for (const PhaseTimers::Entry &e : s.phases) {
            os << (first ? "" : "  ") << e.name << " "
               << Table::num(e.seconds, 2) << "s/" << e.samples;
            first = false;
        }
    }
    if (s.cache.runRetries || s.cache.runFailures ||
        s.cache.serialFallbacks) {
        os << "; reliability: " << s.cache.runRetries << " retries, "
           << s.cache.runFailures << " failures, "
           << s.cache.serialFallbacks << " serial fallbacks";
        if (s.degraded)
            os << " (degraded)";
    }
    return os.str();
}

// -------------------------------------------------------------- global state

namespace
{
std::atomic<unsigned> g_default_jobs{0};
std::atomic<bool> g_default_cache{false};
} // namespace

ExperimentEngine &
defaultEngine()
{
    static ExperimentEngine &engine = []() -> ExperimentEngine & {
        static ExperimentEngine e(g_default_jobs.load());
        // Persistent caching is opt-in: GS_CACHE_DIR in the
        // environment, or the --cache flag (default directory).
        e.setDiskCache(DiskRunCache::fromEnv(g_default_cache.load()));
        return e;
    }();
    return engine;
}

void
setDefaultJobs(unsigned jobs)
{
    g_default_jobs.store(jobs);
}

void
setDefaultCacheEnabled(bool enabled)
{
    g_default_cache.store(enabled);
}

std::optional<unsigned>
parseJobsValue(const std::string &s)
{
    const std::optional<std::uint64_t> v = parseDecimal(s, 1, 4096);
    return v ? std::optional<unsigned>(unsigned(*v)) : std::nullopt;
}

void
ignoreSimThreads(bool flagGiven)
{
    static std::atomic<bool> warned{false};
    if (!flagGiven && std::getenv("GS_SIM_THREADS") == nullptr)
        return;
    if (!warned.exchange(true))
        stderrSink().writeLine(
            "warn: --sim-threads / GS_SIM_THREADS is ignored: intra-run "
            "SM threading was removed (spread runs with --jobs)");
}

void
checkStartupEnv()
{
    if (const char *env = std::getenv("GS_JOBS")) {
        if (!parseJobsValue(env))
            GS_FATAL("GS_JOBS='", env,
                     "' is not a valid worker count (want an integer in "
                     "[1, 4096])");
    }
    ignoreSimThreads(false);
    // Resolve GS_FAULT / GS_CODEC now, not at the first injected seam
    // or compressed write-back.
    faultInjector();
    defaultCodecId();
}

void
initHarness(int argc, char **argv)
{
    setQuiet(true);
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--jobs" || a == "-j") {
            if (i + 1 >= argc)
                GS_FATAL(a, " needs a value");
            const std::optional<unsigned> v = parseJobsValue(argv[++i]);
            if (!v)
                GS_FATAL(a, " wants an integer in [1, 4096], got '",
                         argv[i], "'");
            setDefaultJobs(*v);
        } else if (a == "--sim-threads") {
            if (i + 1 >= argc)
                GS_FATAL(a, " needs a value");
            ++i;
            ignoreSimThreads(true);
        } else if (a == "--codec") {
            if (i + 1 >= argc)
                GS_FATAL("--codec needs a value (", codecIdList(), ")");
            const std::optional<CodecId> c = parseCodecId(argv[++i]);
            if (!c)
                GS_FATAL("--codec wants one of ", codecIdList(),
                         ", got '", argv[i], "'");
            setDefaultCodecId(*c);
        } else if (a == "--cache") {
            setDefaultCacheEnabled(true);
        } else if (a == "--fault" || a.rfind("--fault=", 0) == 0) {
            std::string spec;
            if (a == "--fault") {
                if (i + 1 >= argc)
                    GS_FATAL("--fault needs site:kind:rate[:seed]");
                spec = argv[++i];
            } else {
                spec = a.substr(8);
            }
            std::string err;
            if (!faultInjector().configure(spec, &err))
                GS_FATAL("--fault='", spec, "': ", err);
        }
    }
    checkStartupEnv();
}

} // namespace gs
