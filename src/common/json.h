/**
 * @file
 * JSON syntax, both ways: one streaming writer that every emitter uses,
 * and one strict parser for everything the repo reads back
 * (wsrs-space-v1 design-space specs, the sweep service's control frames,
 * and the tests that check every emitted document).
 *
 * Emitters only name keys and values; the writer decides all syntax. The
 * explorer report and the outer wsrs-rf-v1 table are Compact, every other
 * document is Spaced (docs/observability.md, "Emitting a document").
 *
 * The parser builds a value tree for exactly one RFC 8259 document, the
 * same documents Python's json.load accepts, with integer preservation:
 * numbers without fraction/exponent that fit an int64 are kept exact (job
 * indices and 2^53-unfriendly counters survive). A number that overflows a
 * double is rejected rather than read as infinity, and nesting deeper than
 * kJsonMaxDepth levels is rejected (the writer asserts it never nests so).
 *
 * It is deliberately tiny: no streaming, no comments, no relaxed mode.
 * Parse errors throw wsrs::FatalError naming the byte offset.
 */
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <map>
#include <ostream>
#include <ranges>
#include <string>
#include <string_view>
#include <vector>

namespace wsrs {

/** Escape a string for inclusion inside a JSON string literal. */
std::string jsonEscape(std::string_view s);

/** Deepest value nesting parseJson accepts: the top-level value is at
 *  depth 1, and the members of an array or object one deeper than it. */
inline constexpr int kJsonMaxDepth = 48;

/**
 * Streaming JSON writer over an ostream. Containers are opened and closed
 * explicitly; inside an object every value follows a key(). The writer
 * puts the separators in, quotes and escapes keys and strings, prints
 * integers as numbers (a uint8_t too), nan/inf as null and a range of
 * values as an array.
 */
class JsonWriter
{
  public:
    /** Compact writes `,` and `:`; Spaced writes `, ` and `: `. */
    enum class Style : std::uint8_t { Compact, Spaced };

    JsonWriter(std::ostream &os, Style style) : os_(os), style_(style) {}

    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }
    JsonWriter &key(std::string_view k);

    JsonWriter &
    value(std::string_view s) { return raw('"' + jsonEscape(s) + '"'); }
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }
    JsonWriter &value(bool b) { return raw(b ? "true" : "false"); }
    JsonWriter &value(double v);
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    JsonWriter &value(T v) { separate(); os_ << +v; return *this; }
    template <std::ranges::range R>
        requires(!std::convertible_to<const R &, std::string_view>)
    JsonWriter &
    value(const R &values)
    {
        beginArray();
        for (const auto &v : values)
            value(v);
        return endArray();
    }
    JsonWriter &null() { return raw("null"); }
    /** An already-serialized JSON value, written verbatim. */
    JsonWriter &
    raw(std::string_view json) { separate(); os_ << json; return *this; }

    template <typename T>
    JsonWriter &
    field(std::string_view k, const T &v) { return key(k).value(v); }

  private:
    /** Writes the separator owed before the next key or value, if any. */
    void separate();
    JsonWriter &open(char bracket);
    JsonWriter &close(char bracket);

    std::ostream &os_;
    Style style_;
    int depth_ = 0;
    bool afterKey_ = false;
    /** Per open container: nothing written into it yet. */
    std::array<bool, kJsonMaxDepth> first_{};
};

/** One parsed JSON value (tree-owning). */
class JsonValue
{
  public:
    /** A null value. */
    JsonValue() = default;

    bool isNull() const { return kind_ == Kind::Null; }

    bool asBool() const;
    /** Int value; a Double that is integral converts, others throw. */
    std::int64_t asInt() const;
    double asDouble() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;
    const std::map<std::string, JsonValue> &asObject() const;

    /** Object member or null-kind sentinel when absent. */
    const JsonValue &get(const std::string &key) const;
    bool has(const std::string &key) const;

    /** Typed object accessors with defaults (absent -> default). */
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    bool getBool(const std::string &key, bool def) const;
    std::string getString(const std::string &key,
                          const std::string &def) const;

  private:
    friend class JsonParser;

    enum class Kind : std::uint8_t {
        Null, Bool, Int, Double, String, Array, Object
    };

    explicit JsonValue(bool v) : kind_(Kind::Bool), b_(v) {}
    explicit JsonValue(std::int64_t v) : kind_(Kind::Int), i_(v) {}
    explicit JsonValue(double v) : kind_(Kind::Double), d_(v) {}
    explicit JsonValue(std::string v)
        : kind_(Kind::String), s_(std::move(v))
    {
    }
    explicit JsonValue(std::vector<JsonValue> v)
        : kind_(Kind::Array), arr_(std::move(v))
    {
    }
    explicit JsonValue(std::map<std::string, JsonValue> v)
        : kind_(Kind::Object), obj_(std::move(v))
    {
    }

    Kind kind_ = Kind::Null;
    bool b_ = false;
    std::int64_t i_ = 0;
    double d_ = 0;
    std::string s_;
    std::vector<JsonValue> arr_;
    std::map<std::string, JsonValue> obj_;
};

/**
 * Parse exactly one JSON document (trailing garbage is an error).
 * @param what names the document in error messages (e.g. a frame type).
 * @throws wsrs::FatalError on malformed input.
 */
JsonValue parseJson(std::string_view text, const std::string &what);

} // namespace wsrs
