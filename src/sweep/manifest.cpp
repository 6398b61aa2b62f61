#include "manifest.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "store/serial.hpp"
#include "workloads/workload.hpp"

namespace gs
{

namespace
{

// ---- minimal strict JSON reader ------------------------------------------
// The repo renders JSON in several places but never consumed it before
// the sweep manifest; this reader covers exactly the subset manifests
// need (objects, arrays, strings, integers, booleans), is
// bounds-checked everywhere, caps nesting depth, and reports the byte
// offset of the first problem. Object key order is preserved so the
// canonical rendering matches the author's declaration order.

struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Int,
        String,
        Array,
        Object
    };
    Type type = Type::Null;
    bool boolean = false;
    long long integer = 0;
    std::string str;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;

    const JsonValue *find(const std::string &key) const
    {
        for (const auto &[k, v] : members)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class JsonReader
{
  public:
    JsonReader(const std::string &text) : text_(text) {}

    std::optional<JsonValue> parse(std::string *error)
    {
        std::optional<JsonValue> v = value(0);
        if (v) {
            skipWs();
            if (pos_ != text_.size())
                v = fail("trailing data after the JSON document");
        }
        if (!v && error)
            *error = "JSON error at byte " + std::to_string(pos_) +
                     ": " + err_;
        return v;
    }

  private:
    static constexpr int kMaxDepth = 16;

    std::optional<JsonValue> fail(const std::string &why)
    {
        if (err_.empty())
            err_ = why;
        return std::nullopt;
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool eat(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    std::optional<std::string> string()
    {
        skipWs();
        if (pos_ >= text_.size() || text_[pos_] != '"') {
            fail("expected a string");
            return std::nullopt;
        }
        ++pos_;
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("unescaped control character in string");
                return std::nullopt;
            }
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char e = text_[pos_++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              default:
                fail(std::string("unsupported escape '\\") + e +
                     "' in string");
                return std::nullopt;
            }
        }
        fail("unterminated string");
        return std::nullopt;
    }

    std::optional<JsonValue> value(int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return object(depth);
        if (c == '[')
            return array(depth);
        if (c == '"') {
            std::optional<std::string> s = string();
            if (!s)
                return std::nullopt;
            JsonValue v;
            v.type = JsonValue::Type::String;
            v.str = std::move(*s);
            return v;
        }
        if (c == 't' || c == 'f')
            return boolean();
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return integer();
        return fail("unexpected character");
    }

    std::optional<JsonValue> boolean()
    {
        for (const auto &[word, val] :
             {std::pair<const char *, bool>{"true", true},
              std::pair<const char *, bool>{"false", false}}) {
            const std::size_t n = std::string(word).size();
            if (text_.compare(pos_, n, word) == 0) {
                pos_ += n;
                JsonValue v;
                v.type = JsonValue::Type::Bool;
                v.boolean = val;
                return v;
            }
        }
        return fail("unexpected token");
    }

    std::optional<JsonValue> integer()
    {
        // Manifest numbers are knob values: whole integers only.
        // Fractions and exponents are rejected with a clear message
        // rather than rounded.
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '.' || text_[pos_] == 'e' ||
             text_[pos_] == 'E'))
            return fail("manifest numbers must be whole integers");
        const std::string tok = text_.substr(start, pos_ - start);
        char *end = nullptr;
        errno = 0;
        const long long v = std::strtoll(tok.c_str(), &end, 10);
        if (tok.empty() || tok == "-" || !end || *end != '\0' ||
            errno == ERANGE)
            return fail("malformed number");
        JsonValue out;
        out.type = JsonValue::Type::Int;
        out.integer = v;
        return out;
    }

    std::optional<JsonValue> array(int depth)
    {
        eat('[');
        JsonValue out;
        out.type = JsonValue::Type::Array;
        if (eat(']'))
            return out;
        for (;;) {
            std::optional<JsonValue> v = value(depth + 1);
            if (!v)
                return std::nullopt;
            out.items.push_back(std::move(*v));
            if (eat(']'))
                return out;
            if (!eat(','))
                return fail("expected ',' or ']' in array");
        }
    }

    std::optional<JsonValue> object(int depth)
    {
        eat('{');
        JsonValue out;
        out.type = JsonValue::Type::Object;
        if (eat('}'))
            return out;
        for (;;) {
            std::optional<std::string> key = string();
            if (!key)
                return std::nullopt;
            if (!eat(':'))
                return fail("expected ':' after object key");
            std::optional<JsonValue> v = value(depth + 1);
            if (!v)
                return std::nullopt;
            for (const auto &[k, old] : out.members)
                if (k == *key)
                    return fail("duplicate object key '" + *key + "'");
            out.members.emplace_back(std::move(*key), std::move(*v));
            if (eat('}'))
                return out;
            if (!eat(','))
                return fail("expected ',' or '}' in object");
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    std::string err_;
};

/** Render a scalar JSON value as its canonical knob-value string. */
std::optional<std::string>
knobValueString(const JsonValue &v)
{
    switch (v.type) {
      case JsonValue::Type::String: return v.str;
      case JsonValue::Type::Int: return std::to_string(v.integer);
      case JsonValue::Type::Bool:
        return std::string(v.boolean ? "true" : "false");
      default: return std::nullopt;
    }
}

bool
validName(const std::string &s)
{
    if (s.empty() || s.size() > 64)
        return false;
    for (const char c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
            c != '_' && c != '.')
            return false;
    return true;
}

} // namespace

std::string
applySweepKnob(ArchConfig &cfg, std::string &workload,
               const std::string &knob, const std::string &value)
{
    if (knob == "workload") {
        if (std::string why; !workloadResolvable(value, &why))
            return "knob workload: " + why;
        workload = value;
        return {};
    }
    if (const std::optional<std::string> why =
            applyConfigKnob(cfg, knob, value))
        return why->empty() ? *why : "knob " + knob + ": " + *why;
    return "unknown sweep knob '" + knob + "' (want workload, " +
           configKnobList() + ")";
}

std::uint64_t
SweepPoint::fingerprint() const
{
    std::uint64_t h = fnv1a(workload.data(), workload.size());
    h ^= cfg.fingerprint() + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
    return h;
}

std::string
SweepPoint::label() const
{
    std::string out;
    for (const auto &[knob, value] : labels) {
        if (!out.empty())
            out += ' ';
        out += knob + "=" + value;
    }
    return out.empty() ? std::string("-") : out;
}

std::optional<SweepManifest>
SweepManifest::parse(const std::string &text, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return std::optional<SweepManifest>();
    };

    std::optional<JsonValue> doc = JsonReader(text).parse(error);
    if (!doc)
        return std::nullopt;
    if (doc->type != JsonValue::Type::Object)
        return fail("manifest wants a top-level JSON object");

    for (const auto &[key, v] : doc->members)
        if (key != "schema" && key != "name" && key != "base" &&
            key != "axes")
            return fail("unknown manifest key '" + key +
                        "' (want schema, name, base, axes)");

    const JsonValue *schema = doc->find("schema");
    if (!schema || schema->type != JsonValue::Type::String ||
        schema->str != "gscalar.sweep.v1")
        return fail("manifest schema must be \"gscalar.sweep.v1\"");

    SweepManifest m;
    const JsonValue *name = doc->find("name");
    if (!name || name->type != JsonValue::Type::String ||
        !validName(name->str))
        return fail("manifest name wants 1-64 characters of "
                    "[A-Za-z0-9._-]");
    m.name_ = name->str;

    // Scratch state to validate knob values eagerly: a typo'd codec
    // name fails at parse, not 40 minutes into a campaign.
    ArchConfig scratchCfg;
    std::string scratchWorkload;
    std::vector<std::string> seenKnobs;
    auto knownKnob = [&](const std::string &k) {
        for (const std::string &s : seenKnobs)
            if (s == k)
                return true;
        return false;
    };

    if (const JsonValue *base = doc->find("base")) {
        if (base->type != JsonValue::Type::Object)
            return fail("manifest base wants an object of knob: value");
        for (const auto &[knob, raw] : base->members) {
            const std::optional<std::string> value =
                knobValueString(raw);
            if (!value)
                return fail("base knob '" + knob +
                            "' wants a string, integer or boolean");
            if (const std::string why = applySweepKnob(
                    scratchCfg, scratchWorkload, knob, *value);
                !why.empty())
                return fail("base: " + why);
            seenKnobs.push_back(knob);
            m.base_.emplace_back(knob, *value);
        }
    }

    const JsonValue *axes = doc->find("axes");
    if (!axes || axes->type != JsonValue::Type::Array ||
        axes->items.empty())
        return fail("manifest axes wants a non-empty array");
    for (const JsonValue &axisVal : axes->items) {
        if (axisVal.type != JsonValue::Type::Object)
            return fail("each axis wants an object with knob and "
                        "values");
        for (const auto &[key, v] : axisVal.members)
            if (key != "knob" && key != "values")
                return fail("unknown axis key '" + key +
                            "' (want knob, values)");
        const JsonValue *knob = axisVal.find("knob");
        const JsonValue *values = axisVal.find("values");
        if (!knob || knob->type != JsonValue::Type::String)
            return fail("axis knob wants a string");
        if (!values || values->type != JsonValue::Type::Array ||
            values->items.empty())
            return fail("axis '" + knob->str +
                        "' wants a non-empty values array");
        if (knownKnob(knob->str))
            return fail("knob '" + knob->str +
                        "' appears more than once across base and "
                        "axes");
        seenKnobs.push_back(knob->str);

        Axis axis;
        axis.knob = knob->str;
        for (const JsonValue &raw : values->items) {
            const std::optional<std::string> value =
                knobValueString(raw);
            if (!value)
                return fail("axis '" + axis.knob +
                            "' values want strings, integers or "
                            "booleans");
            for (const std::string &prev : axis.values)
                if (prev == *value)
                    return fail("axis '" + axis.knob +
                                "' repeats value '" + *value + "'");
            if (const std::string why = applySweepKnob(
                    scratchCfg, scratchWorkload, axis.knob, *value);
                !why.empty())
                return fail("axis '" + axis.knob + "': " + why);
            axis.values.push_back(*value);
        }
        m.axes_.push_back(std::move(axis));
    }

    if (!knownKnob("workload"))
        return fail("manifest must pin or sweep the workload knob");

    if (m.pointCount() > kMaxPoints)
        return fail("manifest expands to " +
                    std::to_string(m.pointCount()) +
                    " points (cap: " + std::to_string(kMaxPoints) +
                    ")");
    return m;
}

std::optional<SweepManifest>
SweepManifest::load(const std::string &path, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot read manifest " + path;
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str(), error);
}

std::uint64_t
SweepManifest::pointCount() const
{
    std::uint64_t n = 1;
    for (const Axis &a : axes_) {
        // Saturate instead of overflowing: the parse cap rejects
        // anything bigger than kMaxPoints anyway.
        if (n > kMaxPoints * 2)
            return n;
        n *= a.values.size();
    }
    return n;
}

std::string
SweepManifest::canonicalText() const
{
    // Tab-separated fields, one element per line: none of the legal
    // knob names or values contain tabs or newlines, so the rendering
    // is injective and the hash collision-free across manifests.
    std::string out = "gscalar.sweep.v1\nname\t" + name_ + "\n";
    for (const auto &[knob, value] : base_)
        out += "base\t" + knob + "\t" + value + "\n";
    for (const Axis &a : axes_) {
        out += "axis\t" + a.knob;
        for (const std::string &v : a.values)
            out += "\t" + v;
        out += "\n";
    }
    return out;
}

std::uint64_t
SweepManifest::campaignHash() const
{
    const std::string text = canonicalText();
    return fnv1a(text.data(), text.size());
}

std::string
SweepManifest::campaignId() const
{
    std::ostringstream out;
    out << std::hex << std::setfill('0') << std::setw(16)
        << campaignHash();
    return out.str();
}

std::optional<std::vector<SweepPoint>>
SweepManifest::expand(std::string *error) const
{
    const std::uint64_t n = pointCount();
    std::vector<SweepPoint> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        SweepPoint p;
        p.index = i;
        for (const auto &[knob, value] : base_)
            applySweepKnob(p.cfg, p.workload, knob, value); // validated
        // Odometer in axis declaration order, last axis fastest.
        std::uint64_t stride = n;
        for (const Axis &a : axes_) {
            stride /= a.values.size();
            const std::string &value =
                a.values[(i / stride) % a.values.size()];
            applySweepKnob(p.cfg, p.workload, a.knob, value);
            p.labels.emplace_back(a.knob, value);
        }
        if (const std::string why = p.cfg.check(); !why.empty()) {
            if (error)
                *error = "point " + std::to_string(i) + " (" +
                         p.label() + "): " + why;
            return std::nullopt;
        }
        out.push_back(std::move(p));
    }
    return out;
}

} // namespace gs
