/**
 * @file
 * Deterministic, spec-driven fault injection for the harness' three
 * I/O seams: store file operations, serve sockets, and engine workers.
 * A spec names a site, a fault kind, a firing rate and an optional
 * seed:
 *
 *   GS_FAULT=site:kind:rate[:seed][,site:kind:rate[:seed]...]
 *
 * e.g. `GS_FAULT=engine:throw:0.1:42` or
 * `GS_FAULT=store:bit-flip:0.05,serve:conn-reset:0.02`.
 *
 * Firing is a pure function of (seed, site, kind, occurrence index):
 * the n-th time a hook asks about a matching (site, kind) the answer
 * is decided by hashing the spec seed with the occurrence counter, so
 * a given seed always produces the same firing pattern — the chaos
 * suite replays failures instead of chasing them. The injected faults
 * model *transient* failures: recovery paths (the engine's retry, the
 * cache's recompute) run under a Suppress guard so a single fault
 * class is absorbed by design rather than by luck.
 *
 * Sites and the kinds their hooks consult:
 *
 *   store    short-write, rename-fail, bit-flip   (store/run_cache.cpp)
 *   serve    conn-reset, short-read, eintr, stall (serve/protocol.cpp)
 *   serve    epoll-spurious                       (serve/server.cpp)
 *   engine   throw, slow                          (harness/engine.cpp)
 *   gen      miscompare                           (gen/diff.cpp)
 *   rf       stuck-array                          (sim/sm.cpp)
 *   sweep    journal-torn-write, journal-bit-flip (sweep/journal.cpp)
 *   sweep    point-crash, daemon-lost             (sweep/campaign.cpp)
 *
 * The rf site is special: it models *permanent* manufacturing faults,
 * not transient ones. An armed `rf:stuck-array:rate[:seed]` spec marks
 * a deterministic fraction of every SM's SRAM arrays stuck at
 * construction (a pure hash of seed x SM x bank x array, so the set is
 * identical at any --jobs); a codec whose capability
 * descriptor advertises absorbsStuckFaults (RRCD) redirects the
 * affected registers into spare capacity instead of failing.
 *
 * All hooks are no-ops (one relaxed atomic load) when nothing is
 * armed, so production binaries pay nothing for carrying them.
 */

#ifndef GSCALAR_FAULT_FAULT_HPP
#define GSCALAR_FAULT_FAULT_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gs
{

/** Fault classes an injection site can be asked to produce. */
enum class FaultKind : std::uint8_t
{
    ShortWrite, ///< store: file write persists only a prefix
    RenameFail, ///< store: the atomic publish rename fails
    BitFlip,    ///< store: one payload bit flips after the write
    ConnReset,  ///< serve: the peer vanishes mid-exchange
    ShortRead,  ///< serve: the connection drops inside a frame
    Eintr,      ///< serve: a storm of spurious EINTR wakeups
    Stall,      ///< serve: the peer stops sending for a while
    Throw,      ///< engine: the simulation throws
    Slow,       ///< engine: the simulation takes extra wall clock
    Miscompare, ///< gen: corrupt a differential comparison
    // 10 is retired. The values feed the firing hash, so the kinds
    // after it keep their numbers.
    EpollSpurious = 11,  ///< serve: epoll_wait reports a phantom wakeup
    StuckArray,          ///< rf: an RF SRAM array is permanently stuck
    JournalTornWrite, ///< sweep: a journal append persists only a prefix
    JournalBitFlip,   ///< sweep: one journal record bit flips on disk
    PointCrash,       ///< sweep: the process dies after a point commits
    DaemonLost,       ///< sweep: a daemon submit fails as if the peer died
};

/** Canonical spec name of a kind ("short-write", "throw", ...). */
const char *faultKindName(FaultKind k);

/** Parse a spec kind name; empty optional on unknown names. */
std::optional<FaultKind> parseFaultKind(std::string_view name);

/** One armed fault: where, what, how often, and the decision seed. */
struct FaultSpec
{
    std::string site; ///< "store", "serve", "engine", "gen", "rf",
                      ///< "sweep"
    FaultKind kind = FaultKind::Throw;
    double rate = 0;    ///< firing probability per occurrence, [0, 1]
    std::uint64_t seed = 0;
};

/**
 * The injector: parses specs, answers shouldInject() at every hook,
 * and counts what fired. Instantiable so tests can probe decision
 * sequences in isolation; production hooks consult the process-wide
 * faultInjector() singleton, which arms itself from $GS_FAULT (or the
 * CLI's --fault=) on first use.
 */
class FaultInjector
{
  public:
    FaultInjector() = default;

    /**
     * Arm the injector from a comma-separated spec list, replacing any
     * previous configuration. False (with a one-line reason) on a
     * malformed spec; the previous configuration is kept in that case.
     * An empty string disarms.
     */
    bool configure(const std::string &specList,
                   std::string *error = nullptr);

    /** Drop every spec; hooks return to their no-op fast path. */
    void disarm();

    /** Whether any spec is armed. */
    bool armed() const { return armed_.load(std::memory_order_relaxed); }

    /**
     * Decision point, called by a hook that is able to produce
     * (site, kind). True when an armed spec matches and its seeded
     * hash fires for this occurrence. Counts both consultations and
     * firings; always false under a Suppress guard.
     */
    bool shouldInject(std::string_view site, FaultKind kind);

    /** Faults fired since construction (or the last configure). */
    std::uint64_t injected() const;

    /** Faults fired for one site since the last configure. */
    std::uint64_t injectedAt(std::string_view site) const;

    /** The armed specs (tests and --help diagnostics). */
    std::vector<FaultSpec> specs() const;

    /** First armed spec matching (site, kind); empty when none. */
    std::optional<FaultSpec> armedSpec(std::string_view site,
                                       FaultKind kind) const;

    /**
     * RAII guard exempting the current thread from injection. Recovery
     * paths (engine retry, cache recompute) run under it: the injected
     * faults model transient failures, so the recovery attempt itself
     * must not re-fail — that is what makes a single fault class
     * deterministically absorbable.
     */
    class Suppress
    {
      public:
        Suppress();
        ~Suppress();
        Suppress(const Suppress &) = delete;
        Suppress &operator=(const Suppress &) = delete;
    };

    /** Whether the current thread is under a Suppress guard. */
    static bool suppressed();

  private:
    struct Armed
    {
        FaultSpec spec;
        std::uint64_t siteHash = 0;
        std::atomic<std::uint64_t> occurrences{0};
        std::atomic<std::uint64_t> fired{0};
    };

    std::atomic<bool> armed_{false};
    mutable std::mutex mutex_; ///< guards specs_ (reconfiguration)
    std::vector<std::unique_ptr<Armed>> specs_;
};

/**
 * Process-wide injector consulted by every production hook. On first
 * use it arms itself from $GS_FAULT; a malformed value is fatal (a
 * configuration error, in the GS_JOBS idiom), never silently ignored.
 */
FaultInjector &faultInjector();

/**
 * Convenience hook: consult the process-wide injector. Inlined
 * armed() fast path so unarmed binaries pay one relaxed load.
 */
inline bool
injectFault(std::string_view site, FaultKind kind)
{
    FaultInjector &inj = faultInjector();
    if (!inj.armed())
        return false;
    return inj.shouldInject(site, kind);
}

/**
 * Permanent-fault query for the rf:stuck-array site: whether the SRAM
 * array at (sm, bank, array) is stuck under the armed spec. Unlike
 * shouldInject() this is a pure function of the spec's seed and the
 * coordinates — no occurrence counter — so the stuck set is identical
 * across repeated queries and at any --jobs. False when nothing is
 * armed or under a Suppress guard.
 */
bool stuckArrayFault(unsigned sm, unsigned bank, unsigned array);

} // namespace gs

#endif // GSCALAR_FAULT_FAULT_HPP
