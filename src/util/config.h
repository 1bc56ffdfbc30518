// Typed key=value parameter sets: a bench's declared options and the
// examples' own knobs. Experiments themselves are exp::Scenario, whose
// fields the command line sets by path (exp::overlay_from_tokens).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace tibfit::util {

/// A flat bag of named parameters with typed accessors. Lookups of missing
/// keys return the default; a value of the wrong type throws
/// std::out_of_range.
class Config {
  public:
    using Value = std::variant<bool, long, double, std::string>;

    Config() = default;

    Config& set(const std::string& key, bool v);
    Config& set(const std::string& key, long v);
    Config& set(const std::string& key, int v) { return set(key, static_cast<long>(v)); }
    Config& set(const std::string& key, double v);
    Config& set(const std::string& key, const char* v);
    Config& set(const std::string& key, std::string v);

    bool get_bool(const std::string& key, bool dflt) const;
    long get_int(const std::string& key, long dflt) const;
    /// A count knob (events, runs, node counts, seeds): get_int, except
    /// that a negative value throws std::out_of_range naming the key, so
    /// `events=-5` is rejected instead of wrapping to a huge size.
    std::size_t get_count(const std::string& key, std::size_t dflt) const;
    double get_double(const std::string& key, double dflt) const;
    std::string get_string(const std::string& key, const std::string& dflt) const;

    /// Parses a `key=value` token; the value is interpreted as bool
    /// ("true"/"false"), integer, double, or string — first parse that
    /// consumes the whole token wins. Returns false if the token has no '='.
    bool parse_assignment(const std::string& token);

    /// Parses argv tokens of the form key=value; ignores other tokens.
    void parse_args(int argc, char** argv);

    /// Keys in lexicographic order — used by benches to print Table 1/2.
    std::vector<std::string> keys() const;
    /// Renders a value for display.
    std::string to_string(const std::string& key) const;

  private:
    const Value* find(const std::string& key) const;
    std::map<std::string, Value> values_;
};

}  // namespace tibfit::util
