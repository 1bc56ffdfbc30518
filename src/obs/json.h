// Minimal zero-dependency JSON support for the observability layer: a
// streaming writer (correct escaping, comma placement, round-trippable
// doubles) and a small recursive-descent parser used by the trace reader
// and the test suite. Deliberately not a general-purpose JSON library —
// just enough for tibfit's own artifacts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace tibfit::obs::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// A parsed JSON value. Numbers are always doubles; a count above 2^53,
/// which a double cannot hold exactly, is refused by Fields.
class Value {
  public:
    using Data = std::variant<std::nullptr_t, bool, double, std::string, Array, Object>;

    Value() : data_(nullptr) {}
    Value(std::nullptr_t) : data_(nullptr) {}
    Value(bool b) : data_(b) {}
    Value(double d) : data_(d) {}
    Value(std::string s) : data_(std::move(s)) {}
    Value(Array a) : data_(std::move(a)) {}
    Value(Object o) : data_(std::move(o)) {}

    bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
    bool is_bool() const { return std::holds_alternative<bool>(data_); }
    bool is_number() const { return std::holds_alternative<double>(data_); }
    bool is_string() const { return std::holds_alternative<std::string>(data_); }
    bool is_array() const { return std::holds_alternative<Array>(data_); }
    bool is_object() const { return std::holds_alternative<Object>(data_); }

    /// Typed accessors; throw std::bad_variant_access on kind mismatch.
    bool as_bool() const { return std::get<bool>(data_); }
    double as_number() const { return std::get<double>(data_); }
    const std::string& as_string() const { return std::get<std::string>(data_); }
    const Array& as_array() const { return std::get<Array>(data_); }
    const Object& as_object() const { return std::get<Object>(data_); }
    Object& as_object() { return std::get<Object>(data_); }

    /// False for a number read from text it does not hold exactly
    /// (2^53 + 1 reads as 2^53).
    bool exact() const { return exact_; }

    /// Object member lookup; nullptr if absent or not an object.
    const Value* find(const std::string& key) const;

    /// Convenience: member's number/string/bool with a fallback.
    double number_or(const std::string& key, double dflt) const;
    std::string string_or(const std::string& key, const std::string& dflt) const;
    bool bool_or(const std::string& key, bool dflt) const;

  private:
    friend std::optional<Value> parse_number(std::string_view text);

    Data data_;
    bool exact_ = true;
};

/// Deepest container nesting parse() accepts. tibfit's own documents
/// nest a handful of levels; the limit keeps hostile input from
/// exhausting the stack of the recursive parser.
inline constexpr std::size_t kMaxDepth = 128;

/// The number all of `text` spells (std::from_chars: "nan", "inf" too).
std::optional<Value> parse_number(std::string_view text);

/// Parses one complete JSON document. Throws std::runtime_error with a
/// byte offset on malformed input, on trailing garbage and on nesting
/// deeper than kMaxDepth.
Value parse(std::string_view text);

/// Strict typed reads of one object's members, for configuration
/// documents (scenarios, campaigns). A missing member leaves its target
/// unchanged. A member of the wrong type, a count that is negative, not
/// an integer or beyond its type's range or 2^53, or a section that is
/// not an object (or array of objects) throws std::runtime_error naming
/// the member by its path, e.g. "scenario: binary.n_nodes must be a
/// non-negative integer, got -1". Every lookup marks its member read, so
/// reject_unread() can refuse a member no reader asked for.
class Fields {
  public:
    /// `context` prefixes every message; `path` locates `object` in the
    /// document ("" for the root). Throws unless `object` is an object.
    Fields(const Value& object, std::string context, std::string path = "");

    void read(const char* key, double& out) const;
    void read(const char* key, bool& out) const;
    template <typename Unsigned>
    void read_count(const char* key, Unsigned& out) const {
        if (const Value* v = find(key)) {
            out = static_cast<Unsigned>(
                count(key, *v, static_cast<double>(std::numeric_limits<Unsigned>::max())));
        }
    }

    /// The raw member `key`, or nullptr if absent.
    const Value* find(const char* key) const;
    /// The member section `key`, if present.
    std::optional<Fields> object(const char* key) const;
    /// The elements of the member array `key` (none if absent).
    std::vector<Fields> objects(const char* key) const;

    /// Throws "<context>: unknown field <path>" for the first member no
    /// lookup above asked for: a mistyped key is refused, not ignored.
    void reject_unread() const;
    /// Throws "<context>: <path> must be <what>".
    [[noreturn]] void reject(const std::string& key, const std::string& what) const;

  private:
    std::string name(const std::string& key) const;
    /// A finite integral value in [0, min(max, 2^53)] that its text spelled
    /// exactly, else reject.
    double count(const std::string& key, const Value& v, double max) const;

    const Value* object_;
    std::string context_;
    std::string path_;
    mutable std::vector<const Value*> read_;  ///< members looked up so far
};

/// JSON string escaping (quotes not included).
std::string escape(std::string_view s);

/// Shortest round-trippable rendering of a finite double; NaN/Inf render
/// as null (JSON has no spelling for them).
std::string number_to_string(double v);

/// Streaming writer with automatic comma/indent handling. `indent` = 0
/// writes compact single-line JSON (used for JSONL records).
class Writer {
  public:
    explicit Writer(std::ostream& os, int indent = 0);

    Writer& begin_object();
    Writer& end_object();
    Writer& begin_array();
    Writer& end_array();
    Writer& key(std::string_view name);
    Writer& value(std::string_view v);
    Writer& value(const char* v) { return value(std::string_view(v)); }
    Writer& value(double v);
    Writer& value(std::uint64_t v);
    Writer& value(std::int64_t v);
    Writer& value(int v) { return value(static_cast<std::int64_t>(v)); }
    Writer& value(bool v);
    Writer& value_null();

    /// Shorthand for key(name) + value(v).
    template <typename T>
    Writer& field(std::string_view name, T v) {
        key(name);
        return value(v);
    }

  private:
    void before_value();
    void newline();

    std::ostream* os_;
    int indent_;
    int depth_ = 0;
    /// Per-depth flag: has this container already emitted an element?
    std::vector<bool> has_element_;
    bool pending_key_ = false;
};

}  // namespace tibfit::obs::json
