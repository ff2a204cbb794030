#include "report/json.hh"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace specfetch {

JsonValue
JsonValue::boolean(bool value)
{
    JsonValue v;
    v.valueKind = Kind::Bool;
    v.boolValue = value;
    return v;
}

JsonValue
JsonValue::integer(uint64_t value)
{
    JsonValue v;
    v.valueKind = Kind::Uint;
    v.uintValue = value;
    return v;
}

JsonValue
JsonValue::number(double value)
{
    JsonValue v;
    v.valueKind = Kind::Double;
    v.doubleValue = value;
    return v;
}

JsonValue
JsonValue::string(std::string value)
{
    JsonValue v;
    v.valueKind = Kind::String;
    v.stringValue = std::move(value);
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.valueKind = Kind::Object;
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.valueKind = Kind::Array;
    return v;
}

bool
JsonValue::asBool() const
{
    panic_if(valueKind != Kind::Bool, "JsonValue: not a bool");
    return boolValue;
}

uint64_t
JsonValue::asUint() const
{
    panic_if(valueKind != Kind::Uint, "JsonValue: not an integer");
    return uintValue;
}

double
JsonValue::asDouble() const
{
    if (valueKind == Kind::Uint)
        return static_cast<double>(uintValue);
    panic_if(valueKind != Kind::Double, "JsonValue: not a number");
    return doubleValue;
}

const std::string &
JsonValue::asString() const
{
    panic_if(valueKind != Kind::String, "JsonValue: not a string");
    return stringValue;
}

JsonValue &
JsonValue::set(const std::string &key, JsonValue value)
{
    panic_if(valueKind != Kind::Object, "JsonValue: set on non-object");
    for (auto &[name, member] : objectMembers) {
        if (name == key) {
            member = std::move(value);
            return *this;
        }
    }
    objectMembers.emplace_back(key, std::move(value));
    return *this;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (valueKind != Kind::Object)
        return nullptr;
    for (const auto &[name, member] : objectMembers) {
        if (name == key)
            return &member;
    }
    return nullptr;
}

bool
JsonValue::remove(const std::string &key)
{
    if (valueKind != Kind::Object)
        return false;
    for (auto it = objectMembers.begin(); it != objectMembers.end(); ++it) {
        if (it->first == key) {
            objectMembers.erase(it);
            return true;
        }
    }
    return false;
}

JsonValue &
JsonValue::push(JsonValue value)
{
    panic_if(valueKind != Kind::Array, "JsonValue: push on non-array");
    arrayElements.push_back(std::move(value));
    return *this;
}

const JsonValue &
JsonValue::at(size_t index) const
{
    panic_if(valueKind != Kind::Array, "JsonValue: at() on non-array");
    panic_if(index >= arrayElements.size(),
             "JsonValue: index %zu out of range", index);
    return arrayElements[index];
}

std::string
JsonValue::escape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    out.push_back('"');
    for (unsigned char c : text) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    out.push_back('"');
    return out;
}

namespace {

/** Shortest exact decimal form; always round-trips to the same bits. */
std::string
formatDouble(double value)
{
    char buf[64];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    if (ec != std::errc())
        return "0";
    std::string text(buf, ptr);
    // Bare "inf"/"nan" are not JSON; export as null-adjacent zero so
    // consumers never see invalid documents.
    if (text.find("inf") != std::string::npos ||
        text.find("nan") != std::string::npos) {
        return "0.0";
    }
    // Integral doubles must keep a decimal point, or they would
    // re-parse as Uint and break kind-strict round-trips.
    if (text.find_first_of(".eE") == std::string::npos)
        text += ".0";
    return text;
}

} // namespace

void
JsonValue::dumpTo(std::string &out) const
{
    switch (valueKind) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += boolValue ? "true" : "false";
        break;
      case Kind::Uint:
        out += std::to_string(uintValue);
        break;
      case Kind::Double:
        out += formatDouble(doubleValue);
        break;
      case Kind::String:
        out += escape(stringValue);
        break;
      case Kind::Object: {
        out.push_back('{');
        bool first = true;
        for (const auto &[name, member] : objectMembers) {
            if (!first)
                out.push_back(',');
            first = false;
            out += escape(name);
            out.push_back(':');
            member.dumpTo(out);
        }
        out.push_back('}');
        break;
      }
      case Kind::Array: {
        out.push_back('[');
        bool first = true;
        for (const JsonValue &element : arrayElements) {
            if (!first)
                out.push_back(',');
            first = false;
            element.dumpTo(out);
        }
        out.push_back(']');
        break;
      }
    }
}

std::string
JsonValue::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

bool
operator==(const JsonValue &a, const JsonValue &b)
{
    if (a.valueKind != b.valueKind)
        return false;
    switch (a.valueKind) {
      case JsonValue::Kind::Null:
        return true;
      case JsonValue::Kind::Bool:
        return a.boolValue == b.boolValue;
      case JsonValue::Kind::Uint:
        return a.uintValue == b.uintValue;
      case JsonValue::Kind::Double:
        return a.doubleValue == b.doubleValue;
      case JsonValue::Kind::String:
        return a.stringValue == b.stringValue;
      case JsonValue::Kind::Object:
        return a.objectMembers == b.objectMembers;
      case JsonValue::Kind::Array:
        return a.arrayElements == b.arrayElements;
    }
    return false;
}

namespace {

/** Strict single-document parser over a character range. */
class Parser
{
  public:
    Parser(const std::string &_text, std::string *_error)
        : text(_text), error(_error)
    {}

    bool
    run(JsonValue &out)
    {
        skipWhitespace();
        if (!parseValue(out))
            return false;
        skipWhitespace();
        if (pos != text.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &message)
    {
        if (error)
            *error = message + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWhitespace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    literal(const char *word, JsonValue value, JsonValue &out)
    {
        size_t len = std::char_traits<char>::length(word);
        if (text.compare(pos, len, word) != 0)
            return fail("invalid literal");
        pos += len;
        out = std::move(value);
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        switch (c) {
          case '{':
          case '[': {
            if (depth == JsonValue::kMaxNesting) {
                return fail("nesting deeper than " +
                            std::to_string(JsonValue::kMaxNesting) +
                            " levels");
            }
            ++depth;
            bool parsed = c == '{' ? parseObject(out) : parseArray(out);
            --depth;
            return parsed;
          }
          case '"': return parseString(out);
          case 't': return literal("true", JsonValue::boolean(true), out);
          case 'f': return literal("false", JsonValue::boolean(false), out);
          case 'n': return literal("null", JsonValue::null(), out);
          default:  return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        ++pos; // '{'
        out = JsonValue::object();
        skipWhitespace();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWhitespace();
            JsonValue key;
            if (pos >= text.size() || text[pos] != '"')
                return fail("expected object key");
            if (!parseString(key))
                return false;
            skipWhitespace();
            if (pos >= text.size() || text[pos] != ':')
                return fail("expected ':'");
            ++pos;
            skipWhitespace();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.set(key.asString(), std::move(value));
            skipWhitespace();
            if (pos >= text.size())
                return fail("unterminated object");
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        ++pos; // '['
        out = JsonValue::array();
        skipWhitespace();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWhitespace();
            JsonValue element;
            if (!parseValue(element))
                return false;
            out.push(std::move(element));
            skipWhitespace();
            if (pos >= text.size())
                return fail("unterminated array");
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    /** Append @p codepoint (BMP only) as UTF-8. */
    static void
    appendUtf8(std::string &out, unsigned codepoint)
    {
        if (codepoint < 0x80) {
            out.push_back(static_cast<char>(codepoint));
        } else if (codepoint < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (codepoint >> 6)));
            out.push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xE0 | (codepoint >> 12)));
            out.push_back(
                static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
        }
    }

    bool
    parseString(JsonValue &out)
    {
        ++pos; // '"'
        std::string value;
        for (;;) {
            if (pos >= text.size())
                return fail("unterminated string");
            char c = text[pos++];
            if (c == '"')
                break;
            if (c != '\\') {
                value.push_back(c);
                continue;
            }
            if (pos >= text.size())
                return fail("unterminated escape");
            char esc = text[pos++];
            switch (esc) {
              case '"':  value.push_back('"'); break;
              case '\\': value.push_back('\\'); break;
              case '/':  value.push_back('/'); break;
              case 'b':  value.push_back('\b'); break;
              case 'f':  value.push_back('\f'); break;
              case 'n':  value.push_back('\n'); break;
              case 'r':  value.push_back('\r'); break;
              case 't':  value.push_back('\t'); break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned codepoint = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text[pos++];
                    codepoint <<= 4;
                    if (h >= '0' && h <= '9')
                        codepoint |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        codepoint |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        codepoint |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                if (codepoint >= 0xD800 && codepoint <= 0xDFFF)
                    return fail("surrogate escapes unsupported");
                appendUtf8(value, codepoint);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        out = JsonValue::string(std::move(value));
        return true;
    }

    bool
    parseNumber(JsonValue &out)
    {
        size_t start = pos;
        bool negative = false;
        bool integral = true;
        if (pos < text.size() && text[pos] == '-') {
            negative = true;
            ++pos;
        }
        if (pos >= text.size() ||
            !std::isdigit(static_cast<unsigned char>(text[pos]))) {
            return fail("invalid number");
        }
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos]))) {
            ++pos;
        }
        if (pos < text.size() && text[pos] == '.') {
            integral = false;
            ++pos;
            if (pos >= text.size() ||
                !std::isdigit(static_cast<unsigned char>(text[pos]))) {
                return fail("digits required after '.'");
            }
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos]))) {
                ++pos;
            }
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            integral = false;
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-')) {
                ++pos;
            }
            if (pos >= text.size() ||
                !std::isdigit(static_cast<unsigned char>(text[pos]))) {
                return fail("digits required in exponent");
            }
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos]))) {
                ++pos;
            }
        }
        std::string token = text.substr(start, pos - start);
        if (integral && !negative) {
            uint64_t value = 0;
            auto [ptr, ec] = std::from_chars(
                token.data(), token.data() + token.size(), value);
            if (ec == std::errc() && ptr == token.data() + token.size()) {
                out = JsonValue::integer(value);
                return true;
            }
        }
        out = JsonValue::number(std::strtod(token.c_str(), nullptr));
        return true;
    }

    const std::string &text;
    std::string *error;
    size_t pos = 0;
    /** Arrays and objects open around pos. */
    unsigned depth = 0;
};

} // namespace

bool
JsonValue::parse(const std::string &text, JsonValue &out, std::string *error)
{
    return Parser(text, error).run(out);
}

} // namespace specfetch
