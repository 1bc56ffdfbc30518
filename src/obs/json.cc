#include "obs/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <stdexcept>

namespace tibfit::obs::json {

// ---- Value ----

const Value* Value::find(const std::string& key) const {
    if (!is_object()) return nullptr;
    const auto& obj = as_object();
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
}

double Value::number_or(const std::string& key, double dflt) const {
    const Value* v = find(key);
    return v && v->is_number() ? v->as_number() : dflt;
}

std::string Value::string_or(const std::string& key, const std::string& dflt) const {
    const Value* v = find(key);
    return v && v->is_string() ? v->as_string() : dflt;
}

bool Value::bool_or(const std::string& key, bool dflt) const {
    const Value* v = find(key);
    return v && v->is_bool() ? v->as_bool() : dflt;
}

std::optional<Value> parse_number(std::string_view text) {
    double d = 0.0;
    const auto res = std::from_chars(text.data(), text.data() + text.size(), d);
    if (res.ec != std::errc{} || res.ptr != text.data() + text.size()) return std::nullopt;
    Value v(d);
    // Below 2^53 a double holds every integer; above, compare its exact
    // decimal expansion with the text.
    if (std::isfinite(d) && std::fabs(d) >= 0x1p53) {
        char buf[400];
        const auto r = std::to_chars(buf, buf + sizeof buf, d, std::chars_format::fixed, 0);
        v.exact_ = text == std::string_view(buf, static_cast<std::size_t>(r.ptr - buf));
    }
    return v;
}

// ---- Strict configuration reads ----

Fields::Fields(const Value& object, std::string context, std::string path)
    : object_(&object), context_(std::move(context)), path_(std::move(path)) {
    if (!object.is_object()) {
        throw std::runtime_error(context_ + ": " + (path_.empty() ? "document" : path_) +
                                 " must be a JSON object");
    }
}

std::string Fields::name(const std::string& key) const {
    return path_.empty() ? key : path_ + "." + key;
}

void Fields::reject(const std::string& key, const std::string& what) const {
    throw std::runtime_error(context_ + ": " + name(key) + " must be " + what);
}

const Value* Fields::find(const char* key) const {
    const Value* v = object_->find(key);
    if (v) read_.push_back(v);
    return v;
}

void Fields::reject_unread() const {
    for (const auto& [key, member] : object_->as_object()) {
        if (std::find(read_.begin(), read_.end(), &member) == read_.end()) {
            throw std::runtime_error(context_ + ": unknown field " + name(key));
        }
    }
}

void Fields::read(const char* key, double& out) const {
    if (const Value* v = find(key)) {
        if (!v->is_number()) reject(key, "a number");
        out = v->as_number();
    }
}

void Fields::read(const char* key, bool& out) const {
    if (const Value* v = find(key)) {
        if (!v->is_bool()) reject(key, "true or false");
        out = v->as_bool();
    }
}

double Fields::count(const std::string& key, const Value& v, double max) const {
    if (!v.is_number()) reject(key, "a non-negative integer");
    const double x = v.as_number();
    if (!(x >= 0.0 && x == std::floor(x))) {
        reject(key, "a non-negative integer, got " + number_to_string(x));
    }
    // Past 2^53 a double skips integers, so a larger count may have been
    // rounded on the way in.
    const double limit = std::min(max, 0x1p53);
    if (x > limit || !v.exact()) {
        reject(key, "at most " + number_to_string(limit) +
                        (v.exact() ? ", got " + number_to_string(x) : std::string()));
    }
    return x;
}

std::optional<Fields> Fields::object(const char* key) const {
    const Value* v = find(key);
    if (!v) return std::nullopt;
    return Fields(*v, context_, name(key));
}

std::vector<Fields> Fields::objects(const char* key) const {
    std::vector<Fields> out;
    const Value* v = find(key);
    if (!v) return out;
    if (!v->is_array()) reject(key, "an array of objects");
    const Array& items = v->as_array();
    for (std::size_t i = 0; i < items.size(); ++i) {
        out.emplace_back(items[i], context_, name(key) + "[" + std::to_string(i) + "]");
    }
    return out;
}

// ---- Rendering helpers ----

std::string escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (c < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += static_cast<char>(c);
                }
        }
    }
    return out;
}

std::string number_to_string(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

// ---- Writer ----

Writer::Writer(std::ostream& os, int indent) : os_(&os), indent_(indent) {
    has_element_.push_back(false);
}

void Writer::newline() {
    if (indent_ <= 0) return;
    *os_ << '\n';
    for (int i = 0; i < depth_ * indent_; ++i) *os_ << ' ';
}

void Writer::before_value() {
    if (pending_key_) {
        pending_key_ = false;
        return;
    }
    if (has_element_.back()) *os_ << ',';
    if (depth_ > 0) newline();
    has_element_.back() = true;
}

Writer& Writer::begin_object() {
    before_value();
    *os_ << '{';
    ++depth_;
    has_element_.push_back(false);
    return *this;
}

Writer& Writer::end_object() {
    const bool had = has_element_.back();
    has_element_.pop_back();
    --depth_;
    if (had) newline();
    *os_ << '}';
    return *this;
}

Writer& Writer::begin_array() {
    before_value();
    *os_ << '[';
    ++depth_;
    has_element_.push_back(false);
    return *this;
}

Writer& Writer::end_array() {
    const bool had = has_element_.back();
    has_element_.pop_back();
    --depth_;
    if (had) newline();
    *os_ << ']';
    return *this;
}

Writer& Writer::key(std::string_view name) {
    if (has_element_.back()) *os_ << ',';
    newline();
    has_element_.back() = true;
    *os_ << '"' << escape(name) << "\":";
    if (indent_ > 0) *os_ << ' ';
    pending_key_ = true;
    return *this;
}

Writer& Writer::value(std::string_view v) {
    before_value();
    *os_ << '"' << escape(v) << '"';
    return *this;
}

Writer& Writer::value(double v) {
    before_value();
    *os_ << number_to_string(v);
    return *this;
}

Writer& Writer::value(std::uint64_t v) {
    before_value();
    *os_ << v;
    return *this;
}

Writer& Writer::value(std::int64_t v) {
    before_value();
    *os_ << v;
    return *this;
}

Writer& Writer::value(bool v) {
    before_value();
    *os_ << (v ? "true" : "false");
    return *this;
}

Writer& Writer::value_null() {
    before_value();
    *os_ << "null";
    return *this;
}

// ---- Parser ----

namespace {

class Parser {
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value parse_document() {
        Value v = parse_value(0);
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("json parse error at byte " + std::to_string(pos_) + ": " +
                                 what);
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                ++pos_;
            } else {
                break;
            }
        }
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) != lit) return false;
        pos_ += lit.size();
        return true;
    }

    /// `depth` counts the containers enclosing this value.
    Value parse_value(std::size_t depth) {
        skip_ws();
        const char c = peek();
        if ((c == '{' || c == '[') && depth == kMaxDepth) {
            fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        switch (c) {
            case '{': return parse_object(depth + 1);
            case '[': return parse_array(depth + 1);
            case '"': return Value(parse_string());
            case 't':
                if (consume_literal("true")) return Value(true);
                fail("bad literal");
            case 'f':
                if (consume_literal("false")) return Value(false);
                fail("bad literal");
            case 'n':
                if (consume_literal("null")) return Value(nullptr);
                fail("bad literal");
            default: return parse_number();
        }
    }

    Value parse_object(std::size_t depth) {
        expect('{');
        Object obj;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return Value(std::move(obj));
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            obj[std::move(key)] = parse_value(depth);
            skip_ws();
            const char d = peek();
            if (d == ',') {
                ++pos_;
                continue;
            }
            if (d == '}') {
                ++pos_;
                return Value(std::move(obj));
            }
            fail("expected ',' or '}' in object");
        }
    }

    Value parse_array(std::size_t depth) {
        expect('[');
        Array arr;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return Value(std::move(arr));
        }
        while (true) {
            arr.push_back(parse_value(depth));
            skip_ws();
            const char d = peek();
            if (d == ',') {
                ++pos_;
                continue;
            }
            if (d == ']') {
                ++pos_;
                return Value(std::move(arr));
            }
            fail("expected ',' or ']' in array");
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': out += parse_unicode_escape(); break;
                default: fail("unknown escape");
            }
        }
    }

    std::string parse_unicode_escape() {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
                cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
                cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
                cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
                fail("bad hex digit in \\u escape");
            }
        }
        // BMP code point to UTF-8 (surrogate pairs are not produced by our
        // own writer; lone surrogates encode as-is).
        std::string out;
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
        return out;
    }

    Value parse_number() {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '-' ||
                c == '+') {
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start) fail("expected a value");
        std::optional<Value> out = json::parse_number(text_.substr(start, pos_ - start));
        if (!out) fail("bad number");
        return std::move(*out);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace tibfit::obs::json
