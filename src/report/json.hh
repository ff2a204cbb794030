/**
 * @file
 * Minimal JSON document model for the results-export layer: an ordered
 * value tree, a deterministic compact serializer, and a strict
 * recursive-descent parser for round-trip tests and golden-file
 * comparison.
 *
 * Design constraints (they shape the API):
 *  - serialization must be byte-deterministic so golden files can be
 *    compared exactly: object members keep insertion order, integers
 *    print as integers, and doubles use shortest round-trip form;
 *  - unsigned 64-bit counters must survive a round trip without
 *    passing through double (budgets can push slot clocks past 2^53).
 */

#ifndef SPECFETCH_REPORT_JSON_HH_
#define SPECFETCH_REPORT_JSON_HH_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace specfetch {

/** One JSON value; objects preserve member insertion order. */
class JsonValue
{
  public:
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Uint,    ///< non-negative integer, exact uint64
        Double,  ///< any other number
        String,
        Object,
        Array,
    };

    JsonValue() = default;

    /** @name Constructors for each kind @{ */
    static JsonValue null() { return JsonValue(); }
    static JsonValue boolean(bool value);
    static JsonValue integer(uint64_t value);
    static JsonValue number(double value);
    static JsonValue string(std::string value);
    static JsonValue object();
    static JsonValue array();
    /** @} */

    Kind kind() const { return valueKind; }
    bool isNull() const { return valueKind == Kind::Null; }
    bool isBool() const { return valueKind == Kind::Bool; }
    bool isUint() const { return valueKind == Kind::Uint; }
    bool isNumber() const
    {
        return valueKind == Kind::Uint || valueKind == Kind::Double;
    }
    bool isString() const { return valueKind == Kind::String; }
    bool isObject() const { return valueKind == Kind::Object; }
    bool isArray() const { return valueKind == Kind::Array; }

    /** @name Scalar access (panics on kind mismatch) @{ */
    bool asBool() const;
    uint64_t asUint() const;
    /** Numeric value of Uint or Double. */
    double asDouble() const;
    const std::string &asString() const;
    /** @} */

    /** @name Object interface @{ */
    /** Append (or overwrite) a member; returns *this for chaining. */
    JsonValue &set(const std::string &key, JsonValue value);
    /** Member lookup; nullptr when absent (or not an object). */
    const JsonValue *find(std::string_view key) const;
    /** Drop a member if present; true when something was removed. */
    bool remove(const std::string &key);
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return objectMembers;
    }
    /** @} */

    /** @name Array interface @{ */
    JsonValue &push(JsonValue value);
    size_t size() const { return arrayElements.size(); }
    const JsonValue &at(size_t index) const;
    const std::vector<JsonValue> &elements() const
    {
        return arrayElements;
    }
    /** @} */

    /** Compact deterministic serialization (no whitespace). */
    std::string dump() const;

    /** Deepest array/object nesting parse() accepts. The parser
     *  recurses once per level, so this bounds its stack; the repo's
     *  own documents nest about 5 deep. */
    static constexpr unsigned kMaxNesting = 512;

    /**
     * Parse one JSON document (leading/trailing whitespace allowed,
     * nothing else may follow). Returns false and fills @p error (when
     * given) on malformed input, including nesting past kMaxNesting.
     */
    static bool parse(const std::string &text, JsonValue &out,
                      std::string *error = nullptr);

    /** Quote + escape a string per RFC 8259 (used by dump()). */
    static std::string escape(const std::string &text);

    /** Deep structural equality; numbers compare exactly by kind. */
    friend bool operator==(const JsonValue &a, const JsonValue &b);
    friend bool operator!=(const JsonValue &a, const JsonValue &b)
    {
        return !(a == b);
    }

  private:
    void dumpTo(std::string &out) const;

    Kind valueKind = Kind::Null;
    bool boolValue = false;
    uint64_t uintValue = 0;
    double doubleValue = 0.0;
    std::string stringValue;
    std::vector<std::pair<std::string, JsonValue>> objectMembers;
    std::vector<JsonValue> arrayElements;
};

} // namespace specfetch

#endif // SPECFETCH_REPORT_JSON_HH_
