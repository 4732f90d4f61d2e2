#include "common/json.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"
#include "common/table.hh"

namespace lsim
{

JsonWriter::JsonWriter(std::string &out)
    : out_(out)
{
}

JsonWriter::JsonWriter(std::ostream &os)
    : out_(own_), os_(&os)
{
}

void
JsonWriter::separator()
{
    if (depth_ > 0) {
        if (!first_)
            out_ += ',';
        first_ = false;
    }
}

void
JsonWriter::key(std::string_view name)
{
    separator();
    string(name);
    out_ += ':';
}

void
JsonWriter::open(char bracket)
{
    out_ += bracket;
    ++depth_;
    first_ = true;
}

void
JsonWriter::close(char bracket)
{
    out_ += bracket;
    --depth_;
    first_ = false;
    if (os_ && depth_ == 0) {
        os_->write(out_.data(),
                   static_cast<std::streamsize>(out_.size()));
        out_.clear();
    }
}

void
JsonWriter::beginObject()
{
    separator();
    open('{');
    started_ = true;
}

void
JsonWriter::beginObject(std::string_view name)
{
    key(name);
    open('{');
}

void
JsonWriter::endObject()
{
    if (depth_ == 0)
        panic("JsonWriter::endObject with no open scope");
    close('}');
}

void
JsonWriter::beginArray()
{
    separator();
    open('[');
    started_ = true;
}

void
JsonWriter::beginArray(std::string_view name)
{
    key(name);
    open('[');
}

void
JsonWriter::endArray()
{
    if (depth_ == 0)
        panic("JsonWriter::endArray with no open scope");
    close(']');
}

void
JsonWriter::field(std::string_view name, std::string_view v)
{
    key(name);
    string(v);
}

void
JsonWriter::field(std::string_view name, const char *v)
{
    field(name, std::string_view(v));
}

void
JsonWriter::field(std::string_view name, double v)
{
    key(name);
    number(v);
}

void
JsonWriter::field(std::string_view name, std::uint64_t v)
{
    key(name);
    integer(v);
}

void
JsonWriter::field(std::string_view name, unsigned v)
{
    field(name, static_cast<std::uint64_t>(v));
}

void
JsonWriter::field(std::string_view name, bool v)
{
    key(name);
    out_ += v ? "true" : "false";
}

void
JsonWriter::value(std::string_view v)
{
    separator();
    string(v);
}

void
JsonWriter::value(double v)
{
    separator();
    number(v);
}

void
JsonWriter::value(std::uint64_t v)
{
    separator();
    integer(v);
}

void
JsonWriter::number(double v)
{
    if (!std::isfinite(v))
        out_ += "null"; // JSON has no inf/nan
    else
        appendNumber(out_, v);
}

void
JsonWriter::integer(std::uint64_t v)
{
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void
JsonWriter::string(std::string_view text)
{
    out_ += '"';
    // Plain bytes are copied in runs between the ones that escape.
    std::size_t run = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const auto ch = static_cast<unsigned char>(text[i]);
        if (ch >= 0x20 && ch != '"' && ch != '\\')
            continue;
        out_.append(text, run, i - run);
        run = i + 1;
        switch (ch) {
          case '"':
            out_ += "\\\"";
            break;
          case '\\':
            out_ += "\\\\";
            break;
          case '\n':
            out_ += "\\n";
            break;
          case '\t':
            out_ += "\\t";
            break;
          case '\r':
            out_ += "\\r";
            break;
          default: {
            static constexpr char kHex[] = "0123456789abcdef";
            const char escaped[] = {'\\', 'u', '0', '0',
                                    kHex[ch >> 4], kHex[ch & 0xf]};
            out_.append(escaped, sizeof(escaped));
          }
        }
    }
    out_.append(text, run);
    out_ += '"';
}

// ------------------------------------------------------------- parsing

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue out;
    out.kind_ = Kind::Bool;
    out.bool_ = v;
    return out;
}

JsonValue
JsonValue::makeNumber(double v)
{
    JsonValue out;
    out.kind_ = Kind::Number;
    out.number_ = v;
    return out;
}

JsonValue
JsonValue::makeString(std::string v)
{
    JsonValue out;
    out.kind_ = Kind::String;
    out.string_ = std::move(v);
    return out;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue out;
    out.kind_ = Kind::Array;
    out.items_ = std::move(items);
    return out;
}

JsonValue
JsonValue::makeObject(
    std::vector<std::pair<std::string, JsonValue>> members)
{
    JsonValue out;
    out.kind_ = Kind::Object;
    out.members_ = std::move(members);
    return out;
}

namespace
{

const char *
kindName(JsonValue::Kind kind)
{
    switch (kind) {
      case JsonValue::Kind::Null: return "null";
      case JsonValue::Kind::Bool: return "a boolean";
      case JsonValue::Kind::Number: return "a number";
      case JsonValue::Kind::String: return "a string";
      case JsonValue::Kind::Array: return "an array";
      case JsonValue::Kind::Object: return "an object";
    }
    return "unknown";
}

[[noreturn]] void
wrongKind(JsonValue::Kind have, const char *want)
{
    throw std::invalid_argument(std::string("JSON value is ") +
                                kindName(have) + ", expected " +
                                want);
}

} // namespace

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        wrongKind(kind_, "a boolean");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (kind_ != Kind::Number)
        wrongKind(kind_, "a number");
    return number_;
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        wrongKind(kind_, "a string");
    return string_;
}

std::uint64_t
JsonValue::asU64() const
{
    const double v = asNumber();
    // The bound is exactly 2^64; v == bound must be rejected too,
    // since the cast back would be undefined.
    if (!(v >= 0.0) || v != std::floor(v) ||
        v >= 1.8446744073709552e19)
        throw std::invalid_argument(
            "JSON number is not a non-negative integer");
    return static_cast<std::uint64_t>(v);
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (kind_ != Kind::Array)
        wrongKind(kind_, "an array");
    return items_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (kind_ != Kind::Object)
        wrongKind(kind_, "an object");
    return members_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[name, value] : members())
        if (name == key)
            return &value;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (const JsonValue *v = find(key))
        return *v;
    throw std::invalid_argument("missing JSON field '" + key + "'");
}

namespace
{

/** Recursive-descent RFC 8259 parser over an in-memory document. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text)
        : text_(text)
    {
    }

    JsonValue parse()
    {
        JsonValue v = parseValue(0);
        skipWhitespace();
        if (pos_ != text_.size())
            fail("trailing characters after JSON value");
        return v;
    }

  private:
    // Nesting bound: malformed/hostile input must not overflow the
    // parser's call stack.
    static constexpr int kMaxDepth = 64;

    [[noreturn]] void fail(const std::string &message) const
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        throw std::invalid_argument(
            "JSON parse error at " + std::to_string(line) + ":" +
            std::to_string(col) + ": " + message);
    }

    void skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char ch)
    {
        if (pos_ >= text_.size() || text_[pos_] != ch)
            fail(std::string("expected '") + ch + "'");
        ++pos_;
    }

    bool consumeKeyword(const char *word)
    {
        const std::size_t len = std::char_traits<char>::length(word);
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    JsonValue parseValue(int depth)
    {
        if (depth > kMaxDepth)
            fail("nesting too deep");
        skipWhitespace();
        switch (peek()) {
          case '{': return parseObject(depth);
          case '[': return parseArray(depth);
          case '"': return JsonValue::makeString(parseString());
          case 't':
            if (consumeKeyword("true"))
                return JsonValue::makeBool(true);
            fail("invalid literal");
          case 'f':
            if (consumeKeyword("false"))
                return JsonValue::makeBool(false);
            fail("invalid literal");
          case 'n':
            if (consumeKeyword("null"))
                return JsonValue();
            fail("invalid literal");
          default: return parseNumber();
        }
    }

    JsonValue parseObject(int depth)
    {
        expect('{');
        std::vector<std::pair<std::string, JsonValue>> members;
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            return JsonValue::makeObject(std::move(members));
        }
        while (true) {
            skipWhitespace();
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            members.emplace_back(std::move(key),
                                 parseValue(depth + 1));
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return JsonValue::makeObject(std::move(members));
        }
    }

    JsonValue parseArray(int depth)
    {
        expect('[');
        std::vector<JsonValue> items;
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            return JsonValue::makeArray(std::move(items));
        }
        while (true) {
            items.push_back(parseValue(depth + 1));
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return JsonValue::makeArray(std::move(items));
        }
    }

    std::string parseString()
    {
        if (peek() != '"')
            fail("expected a string");
        ++pos_;
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char ch = text_[pos_++];
            if (ch == '"')
                return out;
            if (static_cast<unsigned char>(ch) < 0x20)
                fail("unescaped control character in string");
            if (ch != '\\') {
                out += ch;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': out += parseUnicodeEscape(); break;
              default: fail("invalid escape sequence");
            }
        }
    }

    unsigned parseHex4()
    {
        if (pos_ + 4 > text_.size())
            fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char ch = text_[pos_++];
            code <<= 4;
            if (ch >= '0' && ch <= '9')
                code |= static_cast<unsigned>(ch - '0');
            else if (ch >= 'a' && ch <= 'f')
                code |= static_cast<unsigned>(ch - 'a' + 10);
            else if (ch >= 'A' && ch <= 'F')
                code |= static_cast<unsigned>(ch - 'A' + 10);
            else
                fail("invalid \\u escape digit");
        }
        return code;
    }

    std::string parseUnicodeEscape()
    {
        unsigned code = parseHex4();
        // Surrogate halves are not characters: a high surrogate must
        // be immediately followed by an escaped low surrogate (the
        // pair encodes one supplementary-plane code point), and a
        // bare low surrogate is always an error. Passing either
        // through would emit invalid UTF-8 that poisons every
        // downstream consumer of the string.
        if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
                fail("unpaired high surrogate in \\u escape");
            pos_ += 2;
            const unsigned low = parseHex4();
            if (low < 0xDC00 || low > 0xDFFF)
                fail("unpaired high surrogate in \\u escape");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate in \\u escape");
        }

        std::string out;
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
        return out;
    }

    JsonValue parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        const std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size() || !std::isfinite(v)) {
            pos_ = start;
            fail("malformed number '" + token + "'");
        }
        return JsonValue::makeNumber(v);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

JsonValue
parseJsonFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::invalid_argument("cannot open JSON file '" + path +
                                    "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    try {
        return parseJson(ss.str());
    } catch (const std::invalid_argument &err) {
        throw std::invalid_argument(path + ": " + err.what());
    }
}

} // namespace lsim
