// Strict command-line knobs for the examples. Every argument must be
// `key=value` with one of the example's declared keys, and a knob's value
// must have the knob's type; anything else prints a message naming the
// example and exits with status 2 before anything runs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/scenario.h"
#include "util/config.h"

namespace tibfit::examples {

class Knobs {
  public:
    Knobs(const char* name, int argc, char** argv, std::initializer_list<const char*> keys)
        : name_(name), keys_(keys.begin(), keys.end()) {
        for (int i = 1; i < argc; ++i) {
            const std::string token = argv[i];
            if (!args_.parse_assignment(token)) {
                fail("unknown argument '" + token + "' (knobs are key=value: " + listing() + ")");
            }
            const std::string key = token.substr(0, token.find('='));
            if (std::find(keys_.begin(), keys_.end(), key) == keys_.end()) {
                fail("unknown knob '" + key + "' (knobs: " + listing() + ")");
            }
        }
    }

    /// A non-negative integer knob, or `dflt` when not given.
    std::size_t count(const char* key, std::size_t dflt) const {
        try {
            return args_.get_count(key, dflt);
        } catch (const std::out_of_range&) {
            fail("knob '" + std::string(key) + "' must be a non-negative integer, got '" +
                 args_.to_string(key) + "'");
        }
    }

    /// Exits 2 with every complaint Scenario::validate() has about `s`.
    void validate(const exp::Scenario& s) const {
        const std::vector<std::string> errors = s.validate();
        for (const std::string& e : errors) std::fprintf(stderr, "%s: %s\n", name_, e.c_str());
        if (!errors.empty()) std::exit(2);
    }

    /// Prints `message` after the example's name and exits 2.
    [[noreturn]] void fail(const std::string& message) const {
        std::fprintf(stderr, "%s: %s\n", name_, message.c_str());
        std::exit(2);
    }

  private:
    std::string listing() const {
        std::string out;
        for (const std::string& k : keys_) out += (out.empty() ? "" : ", ") + k;
        return out;
    }

    const char* name_;
    std::vector<std::string> keys_;
    util::Config args_;
};

}  // namespace tibfit::examples
