// Minimal JSON reader/writer for the benchmark driver: child legs report
// one JSON line each, result files are JSON, and --compare reads two result
// files plus BENCHMARK.json. Covers exactly what those files use (objects,
// arrays, numbers, strings with simple escapes, booleans, null).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bench::json {

/// A parsed value: whichever fields its JSON type uses are set (null sets
/// none).
struct Value {
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<Value> items;     ///< array elements, or object values
    std::vector<std::string> keys; ///< object keys (parallel to items)

    /// Object member `key`, or nullptr when absent or not an object.
    [[nodiscard]] const Value* find(std::string_view key) const
    {
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (keys[i] == key) {
                return &items[i];
            }
        }
        return nullptr;
    }
    /// Object member `key`; throws when absent.
    [[nodiscard]] const Value& at(std::string_view key) const
    {
        const Value* v = find(key);
        if (v == nullptr) {
            throw std::runtime_error("json: missing key \"" +
                                     std::string(key) + "\"");
        }
        return *v;
    }
    [[nodiscard]] double number(std::string_view key) const
    {
        return at(key).num;
    }
};

namespace detail {

class Parser {
  public:
    explicit Parser(std::string_view s) : s_(s) {}

    Value document()
    {
        Value v = value();
        ws();
        if (pos_ != s_.size()) {
            fail("trailing characters");
        }
        return v;
    }

  private:
    [[noreturn]] void fail(const char* what) const
    {
        throw std::runtime_error(std::string("json: ") + what + " at offset " +
                                 std::to_string(pos_));
    }
    void ws()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                s_[pos_] == '\r')) {
            ++pos_;
        }
    }
    bool eat(char c)
    {
        ws();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }
    void expect(char c)
    {
        if (!eat(c)) {
            fail("unexpected character");
        }
    }
    bool literal(std::string_view word)
    {
        if (s_.substr(pos_, word.size()) == word) {
            pos_ += word.size();
            return true;
        }
        return false;
    }

    std::string string()
    {
        expect('"');
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size()) {
                    fail("unterminated escape");
                }
                c = s_[pos_++];
                switch (c) {
                case 'n': c = '\n'; break;
                case 't': c = '\t'; break;
                case 'r': c = '\r'; break;
                case 'b': c = '\b'; break;
                case 'f': c = '\f'; break;
                case '"': case '\\': case '/': break;
                default: fail("unsupported escape");
                }
            }
            out.push_back(c);
        }
        expect('"');
        return out;
    }

    Value value()
    {
        ws();
        if (pos_ >= s_.size()) {
            fail("unexpected end");
        }
        Value v;
        const char c = s_[pos_];
        if (c == '{') {
            ++pos_;
            if (eat('}')) {
                return v;
            }
            do {
                ws();
                v.keys.push_back(string());
                expect(':');
                v.items.push_back(value());
            } while (eat(','));
            expect('}');
        } else if (c == '[') {
            ++pos_;
            if (eat(']')) {
                return v;
            }
            do {
                v.items.push_back(value());
            } while (eat(','));
            expect(']');
        } else if (c == '"') {
            v.str = string();
        } else if (literal("true")) {
            v.b = true;
        } else if (!literal("false") && !literal("null")) {
            const char* first = s_.data() + pos_;
            const auto [end, ec] =
                std::from_chars(first, s_.data() + s_.size(), v.num);
            if (ec != std::errc()) {
                fail("bad number");
            }
            pos_ += static_cast<std::size_t>(end - first);
        }
        return v;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

} // namespace detail

/// Parse one JSON document; throws std::runtime_error on malformed input.
inline Value parse(std::string_view text)
{
    return detail::Parser(text).document();
}

/// Shortest round-trip decimal form of `v` (every significant digit kept);
/// non-finite values, which JSON cannot carry, become null.
inline std::string num(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

inline std::string quote(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
        }
    }
    return out + "\"";
}

/// Builds the text of one JSON object member by member.
class Object {
  public:
    /// Member whose value is already JSON text.
    Object& raw(std::string_view key, std::string_view value)
    {
        if (out_.size() > 1) {
            out_ += ',';
        }
        out_ += quote(key);
        out_ += ':';
        out_ += value;
        return *this;
    }
    Object& num(std::string_view key, double v)
    {
        return raw(key, json::num(v));
    }
    Object& str(std::string_view key, std::string_view v)
    {
        return raw(key, quote(v));
    }
    [[nodiscard]] std::string done() const { return out_ + "}"; }

  private:
    std::string out_ = "{";
};

} // namespace bench::json
