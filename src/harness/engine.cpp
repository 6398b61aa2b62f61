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
#include "sim/gpu.hpp"

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
WorkerPool::submit(std::function<void()> fn, std::uint32_t band,
                   std::shared_ptr<void> tag)
{
    GS_ASSERT(band < kNumPriorities, "band ", band, " out of range");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        GS_ASSERT(!stop_, "submit() on a stopped worker pool");
        queue_[band].push_back(Task{std::move(fn), std::move(tag)});
        depths_.bandPeaks[band] =
            std::max(depths_.bandPeaks[band], queue_[band].size());
        depths_.peak = std::max(depths_.peak, ++depths_.total);
    }
    cv_.notify_one();
}

void
WorkerPool::raise(const void *tag, std::uint32_t band)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::uint32_t from = 0; from < band; ++from) {
        auto &q = queue_[from];
        const auto it = std::find_if(q.begin(), q.end(), [tag](const Task &t) {
            return t.tag.get() == tag;
        });
        if (it != q.end()) {
            queue_[band].push_back(std::move(*it));
            q.erase(it);
            depths_.bandPeaks[band] =
                std::max(depths_.bandPeaks[band], queue_[band].size());
            return;
        }
    }
}

std::shared_ptr<void>
WorkerPool::evictBelow(std::uint32_t band)
{
    Task victim; // destroyed after the lock is released
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::uint32_t b = 0; b < band; ++b) {
            if (!queue_[b].empty()) {
                victim = std::move(queue_[b].back());
                queue_[b].pop_back();
                --depths_.total;
                break;
            }
        }
    }
    return std::move(victim.tag);
}

WorkerPool::Depths
WorkerPool::depths() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Depths d = depths_;
    for (std::size_t b = 0; b < kNumPriorities; ++b)
        d.bands[b] = queue_[b].size();
    return d;
}

void
WorkerPool::workerLoop()
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || depths_.total > 0; });
            if (depths_.total == 0)
                return; // stop_ and drained
            for (std::uint32_t b = kNumPriorities; b-- > 0;) {
                if (!queue_[b].empty()) {
                    task = std::move(queue_[b].front());
                    queue_[b].pop_front();
                    --depths_.total;
                    break;
                }
            }
        }
        task.fn();
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

struct ExperimentEngine::Run
{
    std::string key;
    std::string name;
    ArchConfig cfg;
    std::optional<Workload> prebuilt; ///< empty: build by name
    std::uint32_t band = kDefaultPriority;
    std::promise<RunResult> promise;
    std::shared_future<RunResult> future = promise.get_future().share();
    std::vector<RunCallback> waiters; ///< callbacks joined in flight
    bool done = false; ///< result published; guarded by mutex_
};

ExperimentEngine::ExperimentEngine(unsigned jobs) : pool_(jobs)
{
    // GS_VERBOSE: emit one timing line per completed run. The lines go
    // through the mutexed obs sink so concurrent workers never
    // interleave fragments.
    const char *v = std::getenv("GS_VERBOSE");
    verbose_ = v && *v && std::string(v) != "0";
}

Admission
ExperimentEngine::admit(const std::string &name, const ArchConfig &cfg,
                        const Workload *prebuilt,
                        std::uint32_t band, std::size_t maxQueued,
                        RunCallback done, std::shared_ptr<Run> *out)
{
    const std::string key = cacheKey(name, cfg);
    // Last rung of the degradation ladder: after kDegradeThreshold
    // consecutive failures a blocking caller runs a new key inline —
    // slower, but a suite still completes. Asynchronous callers never.
    const bool runInline = out && degraded();
    std::shared_ptr<Run> run, shed;
    Admission how = Admission::Started;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto it = cache_.find(key); it != cache_.end()) {
            run = it->second;
            ++stats_.hits;
            how = run->done ? Admission::Cached : Admission::Joined;
            if (!run->done && done)
                run->waiters.push_back(std::move(done));
            if (!run->done && band > run->band) {
                // Priority inheritance: a higher-band joiner must not
                // wait behind the run's lower band.
                run->band = band;
                pool_.raise(run.get(), band);
            }
        } else {
            if (maxQueued > 0 && pool_.depths().total >= maxQueued) {
                shed = std::static_pointer_cast<Run>(pool_.evictBelow(band));
                if (!shed)
                    return Admission::Refused;
                // An evicted run never ran: it is no computation.
                if (const auto it = cache_.find(shed->key);
                    it != cache_.end() && it->second == shed)
                    cache_.erase(it);
                --stats_.misses;
            }
            ++stats_.misses;
            run = std::make_shared<Run>();
            run->key = key;
            run->name = name;
            run->cfg = cfg;
            if (prebuilt)
                run->prebuilt = *prebuilt;
            run->band = band;
            if (done)
                run->waiters.push_back(std::move(done));
            cache_.emplace(key, run);
            // Queued under mutex_, so a concurrent join's raise()
            // finds it.
            if (!runInline)
                pool_.submit([this, run] { executeRun(*run); }, band, run);
        }
    }

    if (shed) {
        RunResult r;
        r.workload = shed->name;
        r.mode = shed->cfg.mode;
        r.error = "run shed from the queue by a higher-priority arrival";
        shed->promise.set_value(std::move(r));
        for (RunCallback &cb : shed->waiters)
            cb(nullptr);
    }
    if (how == Admission::Cached && done)
        done(&run->future.get());
    if (how == Admission::Started && runInline) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.serialFallbacks;
        }
        healthCounters().serialFallbacks.fetch_add(
            1, std::memory_order_relaxed);
        executeRun(*run);
    }
    if (out)
        *out = std::move(run);
    return how;
}

std::shared_future<RunResult>
ExperimentEngine::submit(const Workload &w, const ArchConfig &cfg)
{
    std::shared_ptr<Run> run;
    admit(w.name, cfg, &w, kDefaultPriority, 0, nullptr, &run);
    return run->future;
}

std::shared_future<RunResult>
ExperimentEngine::submit(const std::string &abbr, const ArchConfig &cfg)
{
    if (std::string why; !workloadResolvable(abbr, &why))
        GS_FATAL(why);
    std::shared_ptr<Run> run;
    admit(abbr, cfg, nullptr, kDefaultPriority, 0, nullptr, &run);
    return run->future;
}

Admission
ExperimentEngine::submitAsync(const std::string &abbr,
                              const ArchConfig &cfg, std::uint32_t band,
                              std::size_t maxQueued, RunCallback done)
{
    return admit(abbr, cfg, nullptr, band, maxQueued, std::move(done),
                 nullptr);
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
ExperimentEngine::finish(Run &run, RunResult r)
{
    run.promise.set_value(std::move(r));
    std::vector<RunCallback> waiters;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        run.done = true;
        waiters.swap(run.waiters);
    }
    const RunResult &shared = run.future.get();
    for (RunCallback &cb : waiters)
        cb(&shared);
}

void
ExperimentEngine::executeRun(Run &run)
{
    const ArchConfig &cfg = run.cfg;
    // The persistent cache is consulted on the worker, off the submit
    // path; a hit skips the build and the simulation entirely and
    // returns the stored counters bit-for-bit.
    if (disk_) {
        std::optional<RunResult> r;
        {
            ScopedPhase phase(phases_, "disk-cache-load");
            r = disk_->load(run.name, cfg);
        }
        if (r) {
            {
                std::lock_guard<std::mutex> statsLock(mutex_);
                ++stats_.diskHits;
            }
            if (verbose_)
                noteRun(run.name, cfg, r->wallSeconds, "disk-cache");
            finish(run, std::move(*r));
            return;
        }
    }

    std::string err;
    std::optional<Workload> built;
    const Workload *w = run.prebuilt ? &*run.prebuilt : nullptr;
    // Retrying cannot help an unknown name or a launch the config
    // cannot host: each fails the same way every time.
    bool deterministic = !w && !workloadResolvable(run.name, &err);
    auto attempt = [&]() -> std::optional<RunResult> {
        try {
            if (!w) {
                built = makeWorkload(run.name);
                w = &*built;
            }
            return simulateOnce(*w, cfg);
        } catch (const LaunchDoesNotFit &e) {
            err = e.what();
            deterministic = true;
        } catch (const std::exception &e) {
            err = e.what();
        } catch (...) {
            err = "unknown exception";
        }
        return std::nullopt;
    };

    std::optional<RunResult> r;
    if (!deterministic)
        r = attempt();
    if (!r && !deterministic) {
        {
            std::lock_guard<std::mutex> statsLock(mutex_);
            ++stats_.runRetries;
        }
        healthCounters().runRetries.fetch_add(1,
                                              std::memory_order_relaxed);
        GS_WARN("run ", run.name, " failed (", err, "); retrying once");
        // Injected faults are transient by contract: the retry runs
        // exempt from injection so a single armed fault class is
        // absorbed deterministically. Real faults may well recur.
        FaultInjector::Suppress guard;
        r = attempt();
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
        // A deterministic failure says nothing about the pool's health.
        if (!deterministic) {
            const unsigned fails =
                consecutiveFailures_.fetch_add(
                    1, std::memory_order_relaxed) +
                1;
            if (fails >= kDegradeThreshold &&
                !degraded_.exchange(true, std::memory_order_relaxed))
                GS_WARN("degrading to serial execution after ", fails,
                        " consecutive run failures");
        }
        GS_WARN("run ", run.name, " failed",
                deterministic ? ": " : " after retry: ", err);
        RunResult failed;
        failed.workload = run.name;
        failed.mode = cfg.mode;
        failed.error = err;
        finish(run, std::move(failed));
        return;
    }
    consecutiveFailures_.store(0, std::memory_order_relaxed);

    bool stored = false;
    if (disk_) {
        ScopedPhase phase(phases_, "disk-cache-store");
        stored = disk_->store(run.name, cfg, *r);
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
        noteRun(run.name, cfg, r->wallSeconds, "simulate");
    finish(run, std::move(*r));
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
    const WorkerPool::Depths q = pool_.depths();
    s.queueDepth = q.total;
    s.peakQueueDepth = q.peak;
    s.bandDepths = q.bands;
    s.bandPeaks = q.bandPeaks;
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
        for (auto &[key, run] : cache_)
            pending.push_back(run->future);
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

std::optional<int>
processFlagValues(std::string_view arg)
{
    if (arg == "--cache" || arg.starts_with("--fault="))
        return 0;
    if (arg == "--jobs" || arg == "-j" || arg == "--codec" ||
        arg == "--fault" || arg == "--sim-threads")
        return 1;
    return std::nullopt;
}

void
initHarness(int argc, char **argv)
{
    setQuiet(true);
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const std::optional<int> n = processFlagValues(a);
        if (!n)
            continue;
        if (i + *n >= argc) {
            if (a == "--codec")
                GS_FATAL("--codec needs a value (", codecIdList(), ")");
            if (a == "--fault")
                GS_FATAL("--fault needs site:kind:rate[:seed]");
            GS_FATAL(a, " needs a value");
        }
        const std::string v = *n ? argv[++i] : "";
        if (a == "--jobs" || a == "-j") {
            const std::optional<unsigned> jobs = parseJobsValue(v);
            if (!jobs)
                GS_FATAL(a, " wants an integer in [1, 4096], got '", v,
                         "'");
            setDefaultJobs(*jobs);
        } else if (a == "--sim-threads") {
            ignoreSimThreads(true);
        } else if (a == "--codec") {
            const std::optional<CodecId> c = parseCodecId(v);
            if (!c)
                GS_FATAL("--codec wants one of ", codecIdList(),
                         ", got '", v, "'");
            setDefaultCodecId(*c);
        } else if (a == "--cache") {
            setDefaultCacheEnabled(true);
        } else {
            const std::string spec = *n ? v : a.substr(8);
            std::string err;
            if (!faultInjector().configure(spec, &err))
                GS_FATAL("--fault='", spec, "': ", err);
        }
    }
    checkStartupEnv();
}

} // namespace gs
