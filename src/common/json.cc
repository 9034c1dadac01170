#include "json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <utility>

#include "src/common/log.h"

namespace wsrs {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonWriter::separate()
{
    if (!std::exchange(afterKey_, false) && depth_ > 0 &&
        !std::exchange(first_[depth_ - 1], false))
        os_ << (style_ == Style::Spaced ? ", " : ",");
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    value(k);
    os_ << (style_ == Style::Spaced ? ": " : ":");
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    // nan/inf have no JSON spelling.
    if (!std::isfinite(v))
        return null();
    separate();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::open(char bracket)
{
    WSRS_ASSERT(depth_ < kJsonMaxDepth);
    raw(std::string_view(&bracket, 1));
    first_[depth_++] = true;
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket)
{
    WSRS_ASSERT(depth_ > 0 && !afterKey_);
    --depth_;
    os_ << bracket;
    return *this;
}

namespace {

const JsonValue kNullValue;

} // namespace

/** Recursive descent over one document; builds JsonValues directly. */
class JsonParser
{
  public:
    JsonParser(std::string_view text, const std::string &what)
        : text_(text), what_(what)
    {
    }

    JsonValue
    parse()
    {
        skipWs();
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content after JSON value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        fatal("%s: JSON parse error at offset %zu: %s", what_.c_str(),
              pos_, msg.c_str());
    }

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void
    skipWs()
    {
        while (!atEnd() && (peek() == ' ' || peek() == '\t' ||
                            peek() == '\n' || peek() == '\r'))
            ++pos_;
    }

    JsonValue
    value()
    {
        if (++depth_ > kJsonMaxDepth)
            fail("nesting too deep");
        if (atEnd())
            fail("unexpected end of input");
        JsonValue v;
        switch (peek()) {
          case '{': v = object(); break;
          case '[': v = array(); break;
          case '"': v = JsonValue(string()); break;
          case 't': literal("true");
            v = JsonValue(true); break;
          case 'f': literal("false");
            v = JsonValue(false); break;
          case 'n': literal("null"); break;
          default:  v = number(); break;
        }
        --depth_;
        return v;
    }

    JsonValue
    object()
    {
        ++pos_; // '{'
        std::map<std::string, JsonValue> members;
        skipWs();
        if (!atEnd() && peek() == '}') {
            ++pos_;
            return JsonValue(std::move(members));
        }
        for (;;) {
            skipWs();
            if (atEnd() || peek() != '"')
                fail("expected object key string");
            std::string key = string();
            skipWs();
            if (atEnd() || peek() != ':')
                fail("expected ':' after object key");
            ++pos_;
            skipWs();
            members[std::move(key)] = value();
            skipWs();
            if (atEnd())
                fail("unterminated object");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return JsonValue(std::move(members));
            }
            fail("expected ',' or '}' in object");
        }
    }

    JsonValue
    array()
    {
        ++pos_; // '['
        std::vector<JsonValue> items;
        skipWs();
        if (!atEnd() && peek() == ']') {
            ++pos_;
            return JsonValue(std::move(items));
        }
        for (;;) {
            skipWs();
            items.push_back(value());
            skipWs();
            if (atEnd())
                fail("unterminated array");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return JsonValue(std::move(items));
            }
            fail("expected ',' or ']' in array");
        }
    }

    static bool
    isHex(char c)
    {
        return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
               (c >= 'A' && c <= 'F');
    }

    static int
    hexVal(char c)
    {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        return c - 'A' + 10;
    }

    void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        }
    }

    std::string
    string()
    {
        ++pos_; // opening '"'
        std::string out;
        while (!atEnd()) {
            const unsigned char c = static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return out;
            }
            if (c < 0x20)
                fail("unescaped control character in string");
            if (c == '\\') {
                ++pos_;
                if (atEnd())
                    fail("dangling escape");
                const char e = text_[pos_];
                switch (e) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'b': out.push_back('\b'); break;
                  case 'f': out.push_back('\f'); break;
                  case 'n': out.push_back('\n'); break;
                  case 'r': out.push_back('\r'); break;
                  case 't': out.push_back('\t'); break;
                  case 'u': {
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (atEnd() || !isHex(text_[pos_]))
                            fail("bad \\u escape");
                        cp = (cp << 4) | static_cast<unsigned>(
                                             hexVal(text_[pos_]));
                    }
                    appendUtf8(out, cp);
                    break;
                  }
                  default:
                    fail("invalid escape character");
                }
                ++pos_;
                continue;
            }
            out.push_back(static_cast<char>(c));
            ++pos_;
        }
        fail("unterminated string");
    }

    void
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            fail("invalid literal");
        pos_ += word.size();
    }

    bool digit() const { return !atEnd() && peek() >= '0' && peek() <= '9'; }

    JsonValue
    number()
    {
        const std::size_t start = pos_;
        bool integral = true;
        if (peek() == '-')
            ++pos_;
        if (!digit())
            fail("invalid number");
        if (peek() == '0') {
            ++pos_;
        } else {
            while (digit())
                ++pos_;
        }
        if (!atEnd() && peek() == '.') {
            integral = false;
            ++pos_;
            if (!digit())
                fail("digits required after decimal point");
            while (digit())
                ++pos_;
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
            integral = false;
            ++pos_;
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                ++pos_;
            if (!digit())
                fail("digits required in exponent");
            while (digit())
                ++pos_;
        }
        const std::string token(text_.substr(start, pos_ - start));
        if (integral) {
            errno = 0;
            char *end = nullptr;
            const long long v = std::strtoll(token.c_str(), &end, 10);
            if (errno == 0 && end && *end == '\0')
                return JsonValue(static_cast<std::int64_t>(v));
            // Out of int64 range: fall through to double.
        }
        const double d = std::strtod(token.c_str(), nullptr);
        if (!std::isfinite(d)) {
            pos_ = start;
            fail("number overflows a double");
        }
        return JsonValue(d);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string what_;
};

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        fatal("JSON value is not a bool");
    return b_;
}

std::int64_t
JsonValue::asInt() const
{
    if (kind_ == Kind::Int)
        return i_;
    if (kind_ == Kind::Double &&
        d_ == static_cast<double>(static_cast<std::int64_t>(d_)))
        return static_cast<std::int64_t>(d_);
    fatal("JSON value is not an integer");
}

double
JsonValue::asDouble() const
{
    if (kind_ == Kind::Double)
        return d_;
    if (kind_ == Kind::Int)
        return static_cast<double>(i_);
    fatal("JSON value is not a number");
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        fatal("JSON value is not a string");
    return s_;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    if (kind_ != Kind::Array)
        fatal("JSON value is not an array");
    return arr_;
}

const std::map<std::string, JsonValue> &
JsonValue::asObject() const
{
    if (kind_ != Kind::Object)
        fatal("JSON value is not an object");
    return obj_;
}

const JsonValue &
JsonValue::get(const std::string &key) const
{
    const auto &members = asObject();
    const auto it = members.find(key);
    return it == members.end() ? kNullValue : it->second;
}

bool
JsonValue::has(const std::string &key) const
{
    return asObject().count(key) != 0;
}

std::int64_t
JsonValue::getInt(const std::string &key, std::int64_t def) const
{
    const JsonValue &v = get(key);
    return v.isNull() ? def : v.asInt();
}

bool
JsonValue::getBool(const std::string &key, bool def) const
{
    const JsonValue &v = get(key);
    return v.isNull() ? def : v.asBool();
}

std::string
JsonValue::getString(const std::string &key, const std::string &def) const
{
    const JsonValue &v = get(key);
    return v.isNull() ? def : v.asString();
}

JsonValue
parseJson(std::string_view text, const std::string &what)
{
    return JsonParser(text, what).parse();
}

} // namespace wsrs
