/**
 * @file
 * Minimal JSON support for machine-readable statistics dumps and for
 * the user-facing ingestion paths (custom workload profiles, batch
 * specs, imported idle profiles). JsonWriter emits RFC 8259 JSON;
 * parseJson() reads it back into a JsonValue tree.
 *
 * JsonWriter's sink is a std::string: keys and strings are escaped
 * straight into it and numbers formatted into it (appendNumber), so a
 * document costs no temporary per token. The std::ostream
 * constructor is an adapter over that one path for callers that hold
 * a stream (the CLI, the benches, perfbench): it appends to a string
 * of its own and writes that string to the stream when the root
 * value closes. Until then the stream sees nothing, so a caller that
 * writes to the same stream while the document is open must use the
 * string form.
 */

#ifndef LSIM_COMMON_JSON_HH
#define LSIM_COMMON_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lsim
{

/**
 * JSON writer with explicit begin/end nesting. Usage:
 * @code
 *   std::string out;
 *   JsonWriter w(out);
 *   w.beginObject();
 *   w.field("ipc", 1.25);
 *   w.beginArray("units");
 *   w.value(0.5);
 *   w.endArray();
 *   w.endObject();
 * @endcode
 */
class JsonWriter
{
  public:
    /** Append the document to @p out (not owned). */
    explicit JsonWriter(std::string &out);

    /** Write the document to @p os (not owned) when its root value
     * closes (see the file comment). */
    explicit JsonWriter(std::ostream &os);

    // out_ may refer to own_.
    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    /** Open the root or a nested object (named inside objects). */
    void beginObject();
    void beginObject(std::string_view key);
    void endObject();

    /** Open an array (named inside objects). */
    void beginArray();
    void beginArray(std::string_view key);
    void endArray();

    /** Emit a key/value pair inside an object. The const char *
     * overload keeps a string literal from binding to bool. */
    void field(std::string_view key, std::string_view value);
    void field(std::string_view key, const char *value);
    void field(std::string_view key, double value);
    void field(std::string_view key, std::uint64_t value);
    void field(std::string_view key, unsigned value);
    void field(std::string_view key, bool value);

    /** Emit a bare value inside an array. */
    void value(std::string_view value);
    void value(double value);
    void value(std::uint64_t value);

    /** @return true when all opened scopes have been closed. */
    bool balanced() const { return depth_ == 0 && started_; }

  private:
    void separator();
    void key(std::string_view name);
    void open(char bracket);
    void close(char bracket);
    void string(std::string_view text);
    void number(double value);
    void integer(std::uint64_t value);

    std::string own_;            ///< the stream adapter's buffer
    std::string &out_;           ///< sink: a caller's string or own_
    std::ostream *os_ = nullptr; ///< adapter target, else null
    int depth_ = 0;
    /** The innermost open scope has no element yet. A closed scope
     * is an element of its parent, so only opening sets this. */
    bool first_ = false;
    bool started_ = false;
};

/**
 * One parsed JSON value. Structured as a tree: arrays own their
 * element values, objects own ordered (key, value) member pairs.
 *
 * Accessors throw std::invalid_argument when the value is not of the
 * requested kind, so ingestion code can surface "field X is not a
 * number" errors without manual kind checks at every site. These are
 * user-input errors, never programmer errors, hence throw rather
 * than fatal() (the same convention as sleep::PolicyRegistry).
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default; ///< null

    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v);
    static JsonValue makeString(std::string v);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue
    makeObject(std::vector<std::pair<std::string, JsonValue>> members);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /** Number checked to be a non-negative integer (fits uint64). */
    std::uint64_t asU64() const;

    /** Array elements, in document order. */
    const std::vector<JsonValue> &items() const;

    /** Object members, in document order (duplicates preserved). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /** Object member named @p key, or nullptr when absent. */
    const JsonValue *find(const std::string &key) const;

    /** Object member named @p key; throws when absent. */
    const JsonValue &at(const std::string &key) const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Parse one JSON document from @p text (trailing whitespace only
 * after the value). Throws std::invalid_argument with a line:column
 * position on malformed input.
 */
JsonValue parseJson(const std::string &text);

/** parseJson() over the contents of @p path; throws
 * std::invalid_argument when the file cannot be read. */
JsonValue parseJsonFile(const std::string &path);

} // namespace lsim

#endif // LSIM_COMMON_JSON_HH
