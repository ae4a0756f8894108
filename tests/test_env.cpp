#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace eus {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("EUS_TEST_VAR");
    unsetenv("EUS_SCALE");
    unsetenv("EUS_SEED");
  }
};

TEST_F(EnvTest, StringUnsetIsNullopt) {
  unsetenv("EUS_TEST_VAR");
  EXPECT_FALSE(env_string("EUS_TEST_VAR").has_value());
}

TEST_F(EnvTest, StringEmptyIsNullopt) {
  setenv("EUS_TEST_VAR", "", 1);
  EXPECT_FALSE(env_string("EUS_TEST_VAR").has_value());
}

TEST_F(EnvTest, StringSet) {
  setenv("EUS_TEST_VAR", "hello", 1);
  EXPECT_EQ(env_string("EUS_TEST_VAR").value(), "hello");
}

TEST_F(EnvTest, DoubleParses) {
  setenv("EUS_TEST_VAR", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("EUS_TEST_VAR", 1.0), 2.5);
}

TEST_F(EnvTest, DoubleFallbackOnGarbage) {
  setenv("EUS_TEST_VAR", "2.5x", 1);
  EXPECT_DOUBLE_EQ(env_double("EUS_TEST_VAR", 1.0), 1.0);
  setenv("EUS_TEST_VAR", "abc", 1);
  EXPECT_DOUBLE_EQ(env_double("EUS_TEST_VAR", 1.0), 1.0);
}

TEST_F(EnvTest, IntParses) {
  setenv("EUS_TEST_VAR", "-17", 1);
  EXPECT_EQ(env_int("EUS_TEST_VAR", 0), -17);
}

TEST_F(EnvTest, IntFallbackOnGarbage) {
  setenv("EUS_TEST_VAR", "17.5", 1);
  EXPECT_EQ(env_int("EUS_TEST_VAR", 3), 3);
}

TEST_F(EnvTest, BenchScaleDefaultsToOne) {
  unsetenv("EUS_SCALE");
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
}

TEST_F(EnvTest, BenchScaleReadsEnv) {
  setenv("EUS_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 0.25);
}

TEST_F(EnvTest, BenchScaleRejectsNonPositive) {
  setenv("EUS_SCALE", "-1", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  setenv("EUS_SCALE", "0", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
}

TEST_F(EnvTest, BenchSeedDefault) {
  unsetenv("EUS_SEED");
  EXPECT_EQ(bench_seed(), 20130520ULL);
}

TEST_F(EnvTest, BenchSeedReadsEnv) {
  setenv("EUS_SEED", "99", 1);
  EXPECT_EQ(bench_seed(), 99ULL);
}

}  // namespace
}  // namespace eus
