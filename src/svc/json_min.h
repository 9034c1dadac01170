/**
 * @file
 * Minimal strict JSON value parser for the service protocol.
 *
 * The sweep service's control frames (handshakes, leases, worker stats,
 * errors) carry small JSON bodies, and wsrs-space-v1 design-space specs
 * (src/explore/space.cc) are JSON documents. This parser builds a value
 * tree for exactly one RFC 8259 document — same strictness contract as
 * tests/support/json_lint.h and Python's json.load — with integer
 * preservation: numbers without fraction/exponent that fit an int64 are
 * kept exact (job indices and 2^53-unfriendly counters survive).
 *
 * It is deliberately tiny: no streaming, no comments, no relaxed mode.
 * Parse errors throw wsrs::FatalError naming the byte offset.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace wsrs::svc {

/** One parsed JSON value (tree-owning). */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t {
        Null, Bool, Int, Double, String, Array, Object
    };

    Kind kind() const { return kind_; }
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

    // Construction (used by the parser; also handy in tests).
    static JsonValue makeNull() { return JsonValue(); }
    static JsonValue makeBool(bool v);
    static JsonValue makeInt(std::int64_t v);
    static JsonValue makeDouble(double v);
    static JsonValue makeString(std::string v);
    static JsonValue makeArray(std::vector<JsonValue> v);
    static JsonValue makeObject(std::map<std::string, JsonValue> v);

  private:
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

} // namespace wsrs::svc
