#include "util/config.h"

#include <gtest/gtest.h>

namespace tibfit::util {
namespace {

TEST(Config, SetAndGetTyped) {
    Config c;
    c.set("flag", true).set("count", 42).set("rate", 0.25).set("name", "tibfit");
    EXPECT_TRUE(c.get_bool("flag", false));
    EXPECT_EQ(c.get_int("count", 0), 42);
    EXPECT_DOUBLE_EQ(c.get_double("rate", 0.0), 0.25);
    EXPECT_EQ(c.get_string("name", ""), "tibfit");
}

TEST(Config, DefaultsWhenMissing) {
    Config c;
    EXPECT_FALSE(c.get_bool("missing", false));
    EXPECT_EQ(c.get_int("missing", 7), 7);
    EXPECT_DOUBLE_EQ(c.get_double("missing", 1.5), 1.5);
    EXPECT_EQ(c.get_string("missing", "d"), "d");
}

TEST(Config, IntPromotesToDouble) {
    Config c;
    c.set("n", 10);
    EXPECT_DOUBLE_EQ(c.get_double("n", 0.0), 10.0);
}

TEST(Config, WrongTypeThrows) {
    Config c;
    c.set("s", "text");
    EXPECT_THROW(c.get_int("s", 0), std::out_of_range);
}

TEST(Config, ParseAssignmentInfersTypes) {
    Config c;
    EXPECT_TRUE(c.parse_assignment("flag=true"));
    EXPECT_TRUE(c.parse_assignment("n=12"));
    EXPECT_TRUE(c.parse_assignment("x=0.5"));
    EXPECT_TRUE(c.parse_assignment("s=hello"));
    EXPECT_TRUE(c.get_bool("flag", false));
    EXPECT_EQ(c.get_int("n", 0), 12);
    EXPECT_DOUBLE_EQ(c.get_double("x", 0.0), 0.5);
    EXPECT_EQ(c.get_string("s", ""), "hello");
}

TEST(Config, ParseAssignmentRejectsMalformed) {
    Config c;
    EXPECT_FALSE(c.parse_assignment("no_equals"));
    EXPECT_FALSE(c.parse_assignment("=value"));
}

TEST(Config, KeysSortedAndToString) {
    Config c;
    c.set("b", 2).set("a", true).set("c", "x");
    const auto keys = c.keys();
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0], "a");
    EXPECT_EQ(keys[1], "b");
    EXPECT_EQ(keys[2], "c");
    EXPECT_EQ(c.to_string("a"), "true");
    EXPECT_EQ(c.to_string("b"), "2");
    EXPECT_EQ(c.to_string("c"), "x");
    EXPECT_EQ(c.to_string("zzz"), "");
}

}  // namespace
}  // namespace tibfit::util
