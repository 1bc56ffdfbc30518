#include "util/config.h"

#include <charconv>
#include <sstream>
#include <stdexcept>

namespace tibfit::util {

Config& Config::set(const std::string& key, bool v) {
    values_[key] = v;
    return *this;
}
Config& Config::set(const std::string& key, long v) {
    values_[key] = v;
    return *this;
}
Config& Config::set(const std::string& key, double v) {
    values_[key] = v;
    return *this;
}
Config& Config::set(const std::string& key, const char* v) {
    values_[key] = std::string(v);
    return *this;
}
Config& Config::set(const std::string& key, std::string v) {
    values_[key] = std::move(v);
    return *this;
}

const Config::Value* Config::find(const std::string& key) const {
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

namespace {

[[noreturn]] void wrong_type(const std::string& key) {
    throw std::out_of_range("Config: key '" + key + "' has wrong type");
}

}  // namespace

bool Config::get_bool(const std::string& key, bool dflt) const {
    const Value* v = find(key);
    if (!v) return dflt;
    if (auto* b = std::get_if<bool>(v)) return *b;
    wrong_type(key);
}

long Config::get_int(const std::string& key, long dflt) const {
    const Value* v = find(key);
    if (!v) return dflt;
    if (auto* i = std::get_if<long>(v)) return *i;
    wrong_type(key);
}

std::size_t Config::get_count(const std::string& key, std::size_t dflt) const {
    const long n = get_int(key, static_cast<long>(dflt));
    if (n < 0) {
        throw std::out_of_range("Config: key '" + key +
                                "' must be a non-negative integer, got " + std::to_string(n));
    }
    return static_cast<std::size_t>(n);
}

double Config::get_double(const std::string& key, double dflt) const {
    const Value* v = find(key);
    if (!v) return dflt;
    if (auto* d = std::get_if<double>(v)) return *d;
    if (auto* i = std::get_if<long>(v)) return static_cast<double>(*i);
    wrong_type(key);
}

std::string Config::get_string(const std::string& key, const std::string& dflt) const {
    const Value* v = find(key);
    if (!v) return dflt;
    if (auto* s = std::get_if<std::string>(v)) return *s;
    wrong_type(key);
}

bool Config::parse_assignment(const std::string& token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    const std::string key = token.substr(0, eq);
    const std::string val = token.substr(eq + 1);

    if (val == "true") {
        set(key, true);
        return true;
    }
    if (val == "false") {
        set(key, false);
        return true;
    }
    long i = 0;
    auto [pi, eci] = std::from_chars(val.data(), val.data() + val.size(), i);
    if (eci == std::errc{} && pi == val.data() + val.size()) {
        set(key, i);
        return true;
    }
    double d = 0.0;
    auto [pd, ecd] = std::from_chars(val.data(), val.data() + val.size(), d);
    if (ecd == std::errc{} && pd == val.data() + val.size()) {
        set(key, d);
        return true;
    }
    set(key, val);
    return true;
}

void Config::parse_args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) parse_assignment(argv[i]);
}

std::vector<std::string> Config::keys() const {
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto& [k, _] : values_) out.push_back(k);
    return out;
}

std::string Config::to_string(const std::string& key) const {
    const Value* v = find(key);
    if (!v) return {};
    std::ostringstream os;
    std::visit(
        [&os](const auto& x) {
            if constexpr (std::is_same_v<std::decay_t<decltype(x)>, bool>) {
                os << (x ? "true" : "false");
            } else {
                os << x;
            }
        },
        *v);
    return os.str();
}

}  // namespace tibfit::util
