/**
 * @file
 * The benchmark's own arithmetic, kept free of simulator headers so the
 * self-test can check it in isolation: percentiles, the seeded
 * open-loop arrival schedule, in-memory spans and their self time, the
 * derived-metric formulas, and a small JSON writer.
 */

#ifndef GSCALAR_PERFBENCH_BENCH_CORE_HPP
#define GSCALAR_PERFBENCH_BENCH_CORE_HPP

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gsb
{

// ---- statistics -----------------------------------------------------------

/**
 * Percentile @p q (0..100) of @p v by linear interpolation between
 * order statistics at rank q/100 * (n - 1) (numpy's default). 0 for an
 * empty sample.
 */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q / 100.0 * double(v.size() - 1);
    const auto lo = std::size_t(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

inline double
median(const std::vector<double> &v)
{
    return percentile(v, 50);
}

/**
 * Whether a sample of @p n supports reporting percentile @p q: at least
 * ten samples must lie beyond it (p90 needs n >= 100).
 */
inline bool
percentileSupported(std::size_t n, double q)
{
    return double(n) * (100.0 - q) / 100.0 >= 10.0;
}

/** Failed, errored or shed operations over operations attempted. */
inline double
failedFrac(std::uint64_t failed, std::uint64_t attempted)
{
    return attempted ? double(failed) / double(attempted) : 0;
}

/** Summed simulate time over the time @p jobs workers had available. */
inline double
engineUtilization(double simulateSeconds, unsigned jobs, double wallSeconds)
{
    return jobs && wallSeconds > 0
               ? simulateSeconds / (double(jobs) * wallSeconds)
               : 0;
}

// ---- deterministic randomness ---------------------------------------------

/** splitmix64: the benchmark's only source of randomness. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        state_ += 0x9e3779b97f4a7c15ull;
        return mix64(state_);
    }

    /** Uniform in [0, 1) with 53 random bits. */
    double uniform() { return double(next() >> 11) * 0x1.0p-53; }

    /** Uniform integer in [0, n). */
    std::uint64_t below(std::uint64_t n) { return n ? next() % n : 0; }

  private:
    std::uint64_t state_;
};

// ---- open-loop schedule ---------------------------------------------------

/** Request classes of the serving mix. */
enum class ReqClass : std::uint8_t
{
    Fresh, ///< a fingerprint the daemon has never seen: simulates
    Dup,   ///< a repeat of an earlier fresh fingerprint: coalesce or memo
    Disk,  ///< present only in the disk cache warmed during set-up
};

/** One scheduled arrival: due time from the phase start, and class. */
struct Arrival
{
    std::int64_t dueNs = 0;
    ReqClass cls = ReqClass::Fresh;
};

/**
 * Poisson arrivals at @p rate per second over @p seconds, each class
 * taking an exact third of the requests (in a seeded shuffled order) so
 * the mix, and with it the latency percentiles, does not drift with
 * the seed. The first request of the phase is always fresh, so a dup
 * always has an earlier fresh request of its phase to repeat.
 */
inline std::vector<Arrival>
makeSchedule(std::uint64_t seed, double rate, double seconds)
{
    Rng rng(seed);
    std::vector<Arrival> out;
    double t = 0;
    for (;;) {
        t += -std::log1p(-rng.uniform()) / rate;
        if (t >= seconds)
            break;
        out.push_back({std::int64_t(t * 1e9), ReqClass::Fresh});
    }
    std::vector<ReqClass> classes(out.size());
    for (std::size_t i = 0; i < classes.size(); ++i)
        classes[i] = ReqClass(i % 3);
    for (std::size_t i = classes.size(); i > 1; --i)
        std::swap(classes[i - 1], classes[rng.below(i)]);
    const auto firstFresh =
        std::find(classes.begin(), classes.end(), ReqClass::Fresh);
    if (firstFresh != classes.end())
        std::iter_swap(classes.begin(), firstFresh);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].cls = classes[i];
    return out;
}

// ---- spans ----------------------------------------------------------------

/** One traced interval at a layer boundary. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;             ///< index into the log, -1 for a root
    std::uint64_t requestId = 0; ///< spans of one request share it
};

/**
 * In-memory span log. Spans nest per thread: a span begun while another
 * is open on the same thread becomes its child. When disabled, begin()
 * and end() do nothing, so untraced runs pay one branch per call.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    /** Open a span on this thread; returns its index (-1 if disabled). */
    int
    begin(std::string name, std::uint64_t requestId = 0)
    {
        if (!enabled_)
            return -1;
        std::vector<int> &stack = threadStack();
        std::lock_guard<std::mutex> lock(mutex_);
        const int id = int(spans_.size());
        spans_.push_back({std::move(name), nowNs(), 0,
                          stack.empty() ? -1 : stack.back(), requestId});
        stack.push_back(id);
        return id;
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        std::vector<int> &stack = threadStack();
        if (!stack.empty() && stack.back() == id)
            stack.pop_back();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[std::size_t(id)].endNs = nowNs();
    }

    /** Add a span whose timestamps and parent the caller measured. */
    void
    add(Span s)
    {
        if (!enabled_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(s));
    }

    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

  private:
    static std::vector<int> &
    threadStack()
    {
        thread_local std::vector<int> stack;
        return stack;
    }

    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: begun on construction, ended on destruction. */
class Scope
{
  public:
    Scope(SpanLog &log, std::string name, std::uint64_t requestId = 0)
        : log_(log), id_(log.begin(std::move(name), requestId))
    {}
    ~Scope() { log_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &log_;
    int id_;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by the union of its children (clipped to the parent, so
 * overlapping children on other threads are not subtracted twice).
 */
inline std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0 && std::size_t(s.parent) < spans.size())
            kids[std::size_t(s.parent)].push_back({s.startNs, s.endNs});
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, curLo = 0, curHi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, p.startNs);
            hi = std::min(hi, p.endNs);
            if (hi <= lo)
                continue;
            if (open && lo <= curHi) {
                curHi = std::max(curHi, hi);
                continue;
            }
            if (open)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
            open = true;
        }
        if (open)
            covered += curHi - curLo;
        self[i] = (p.endNs - p.startNs) - covered;
    }
    return self;
}

// ---- JSON -----------------------------------------------------------------

/** Shortest text that reads back as exactly @p v (no rounding). */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

inline std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            static const char hex[] = "0123456789abcdef";
            out += "\\u00";
            out += hex[(c >> 4) & 0xf];
            out += hex[c & 0xf];
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace gsb

#endif // GSCALAR_PERFBENCH_BENCH_CORE_HPP
