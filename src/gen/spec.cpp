#include "spec.hpp"

#include <string_view>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "store/serial.hpp"

namespace gs
{

namespace
{

/** One knob: canonical name, member, and inclusive bounds. */
struct Knob
{
    const char *name;
    std::uint32_t GenSpec::*member;
    std::uint32_t min;
    std::uint32_t max;
};

// Canonical order: this is also the field order of toName(). The seed
// is handled separately (it is 64-bit); it always renders first.
constexpr Knob kKnobs[] = {
    {"ops", &GenSpec::ops, 1, 4096},
    {"ctas", &GenSpec::ctas, 1, 64},
    {"tpc", &GenSpec::tpc, 1, 256},
    {"div", &GenSpec::div, 0, 100},
    {"pred", &GenSpec::pred, 0, 100},
    {"scalar", &GenSpec::scalar, 0, 100},
    {"affine", &GenSpec::affine, 0, 100},
    {"stride", &GenSpec::stride, 1, 64},
    {"ind", &GenSpec::ind, 0, 100},
    {"sfu", &GenSpec::sfu, 0, 100},
    {"shared", &GenSpec::shared, 0, 100},
};

/** SplitMix64 mixing step (fingerprint chaining, config.hpp idiom). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

std::string
GenSpec::check() const
{
    for (const Knob &k : kKnobs) {
        const std::uint32_t v = this->*(k.member);
        if (v < k.min || v > k.max)
            return std::string("gen knob ") + k.name + "=" +
                   std::to_string(v) + " wants [" + std::to_string(k.min) +
                   ", " + std::to_string(k.max) + "]";
    }
    if (scalar + affine > 100)
        return "gen knobs scalar+affine=" +
               std::to_string(scalar + affine) + " exceed 100";
    const std::uint64_t total = std::uint64_t(ctas) * tpc;
    if (total > 8192)
        return "gen launch ctas*tpc=" + std::to_string(total) +
               " exceeds 8192 threads";
    if (total * stride > 262144)
        return "gen input ctas*tpc*stride=" +
               std::to_string(total * stride) + " exceeds 262144 words";
    return std::string();
}

void
GenSpec::validate() const
{
    const std::string why = check();
    if (!why.empty())
        GS_FATAL(why);
}

std::uint64_t
GenSpec::fingerprint() const
{
    std::uint64_t h = mix64(0x67656e2d73706563ull); // "gen-spec"
    h = mix64(h ^ seed);
    for (const Knob &k : kKnobs)
        h = mix64(h ^ this->*(k.member));
    return h;
}

std::string
GenSpec::toName() const
{
    std::string name = "gen:seed=" + std::to_string(seed);
    for (const Knob &k : kKnobs) {
        name += ',';
        name += k.name;
        name += '=';
        name += std::to_string(this->*(k.member));
    }
    return name;
}

bool
setGenKnob(GenSpec &spec, const std::string &knob,
           const std::string &value, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };

    const std::optional<std::uint64_t> parsed = parseDecimal(value);
    if (!parsed)
        return fail("gen knob " + knob + "='" + value +
                    "' wants a non-negative integer");
    const std::uint64_t v = *parsed;

    if (knob == "seed") {
        spec.seed = v;
        return true;
    }
    for (const Knob &k : kKnobs) {
        if (knob != k.name)
            continue;
        if (v < k.min || v > k.max)
            return fail("gen knob " + knob + "=" + value + " wants [" +
                        std::to_string(k.min) + ", " +
                        std::to_string(k.max) + "]");
        spec.*(k.member) = std::uint32_t(v);
        return true;
    }
    return fail("unknown gen knob '" + knob + "'");
}

std::vector<std::string>
genKnobNames()
{
    std::vector<std::string> names = {"seed"};
    for (const Knob &k : kKnobs)
        names.push_back(k.name);
    return names;
}

std::optional<GenSpec>
parseGenSpec(const std::string &name, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return std::optional<GenSpec>();
    };

    constexpr std::string_view kPrefix = "gen:";
    if (name.rfind(kPrefix, 0) != 0)
        return fail("gen spec '" + name + "' wants a gen: prefix");

    GenSpec spec;
    std::vector<std::string> seen;
    std::size_t pos = kPrefix.size();
    if (pos >= name.size())
        return fail("gen spec '" + name +
                    "' wants at least one knob=value entry");
    while (pos < name.size()) {
        std::size_t comma = name.find(',', pos);
        if (comma == std::string::npos)
            comma = name.size();
        const std::string entry = name.substr(pos, comma - pos);
        pos = comma + 1;

        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0)
            return fail("gen spec entry '" + entry + "' wants knob=value");
        const std::string knob = entry.substr(0, eq);
        const std::string value = entry.substr(eq + 1);

        for (const std::string &s : seen)
            if (s == knob)
                return fail("gen spec repeats knob '" + knob + "'");
        seen.push_back(knob);

        std::string why;
        if (!setGenKnob(spec, knob, value, &why))
            return fail(why);
    }

    if (const std::string why = spec.check(); !why.empty())
        return fail(why);
    return spec;
}

// ---- binary round trip ---------------------------------------------------

namespace
{
// Wire tags (append-only): 1 = seed, 2.. = kKnobs in order.
constexpr std::uint16_t kTagSeed = 1;
constexpr std::uint16_t kTagKnobBase = 2;
} // namespace

std::vector<std::uint8_t>
serializeGenSpec(const GenSpec &spec)
{
    ByteWriter w(BlobKind::GenSpec);
    w.field(kTagSeed, spec.seed);
    std::uint16_t tag = kTagKnobBase;
    for (const Knob &k : kKnobs)
        w.field(tag++, spec.*(k.member));
    return w.finish();
}

std::optional<GenSpec>
deserializeGenSpec(const std::uint8_t *data, std::size_t size,
                   std::string *error)
{
    ByteReader r(data, size, BlobKind::GenSpec);
    GenSpec spec;
    r.get(kTagSeed, spec.seed);
    std::uint16_t tag = kTagKnobBase;
    for (const Knob &k : kKnobs)
        r.get(tag++, spec.*(k.member));
    if (r.ok())
        if (const std::string why = spec.check(); !why.empty())
            r.fail(why);
    if (!r.ok()) {
        if (error)
            *error = r.error();
        return std::nullopt;
    }
    return spec;
}

} // namespace gs
