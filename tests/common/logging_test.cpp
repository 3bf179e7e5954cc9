#include "common/logging.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace simty {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logger::instance().set_sink([this](LogLevel level, const std::string& msg) {
      captured_.emplace_back(level, msg);
    });
    Logger::instance().set_level(LogLevel::kDebug);
  }
  void TearDown() override {
    Logger::instance().set_sink(nullptr);
    Logger::instance().set_level(LogLevel::kWarn);
  }
  std::vector<std::pair<LogLevel, std::string>> captured_;
};

TEST_F(LoggingTest, RoutesToSink) {
  SIMTY_INFO("hello");
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].first, LogLevel::kInfo);
  EXPECT_EQ(captured_[0].second, "hello");
}

TEST_F(LoggingTest, LevelFiltersBelow) {
  Logger::instance().set_level(LogLevel::kWarn);
  SIMTY_DEBUG("drop");
  SIMTY_INFO("drop");
  SIMTY_WARN("keep");
  SIMTY_ERROR("keep");
  EXPECT_EQ(captured_.size(), 2u);
}

TEST_F(LoggingTest, OffDropsEverything) {
  Logger::instance().set_level(LogLevel::kOff);
  SIMTY_ERROR("drop");
  EXPECT_TRUE(captured_.empty());
}

TEST_F(LoggingTest, DisabledLevelDoesNotEvaluateMessage) {
  Logger::instance().set_level(LogLevel::kInfo);
  int evaluated = 0;
  const auto message = [&evaluated] {
    ++evaluated;
    return std::string("formatted");
  };
  SIMTY_DEBUG(message());
  EXPECT_EQ(evaluated, 0) << "a filtered message must not be built";
  EXPECT_TRUE(captured_.empty());
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kDebug));
}

TEST_F(LoggingTest, EnabledLevelReachesSinkExactlyOnce) {
  Logger::instance().set_level(LogLevel::kInfo);
  int evaluated = 0;
  const auto message = [&evaluated] {
    ++evaluated;
    return std::string("once");
  };
  SIMTY_INFO(message());
  EXPECT_EQ(evaluated, 1);
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].first, LogLevel::kInfo);
  EXPECT_EQ(captured_[0].second, "once");
}

TEST_F(LoggingTest, OffSilencesEveryLevelWithoutEvaluating) {
  Logger::instance().set_level(LogLevel::kOff);
  int evaluated = 0;
  const auto message = [&evaluated] {
    ++evaluated;
    return std::string("drop");
  };
  SIMTY_DEBUG(message());
  SIMTY_INFO(message());
  SIMTY_WARN(message());
  SIMTY_ERROR(message());
  EXPECT_EQ(evaluated, 0);
  EXPECT_TRUE(captured_.empty());
  for (const LogLevel l : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                           LogLevel::kError, LogLevel::kOff}) {
    EXPECT_FALSE(Logger::instance().enabled(l)) << to_string(l);
  }
}

TEST_F(LoggingTest, MacroIsASingleStatement) {
  // The do/while(0) body composes with an unbraced if/else.
  bool flag = false;
  if (flag)
    SIMTY_ERROR("not taken");
  else
    SIMTY_ERROR("taken");
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].second, "taken");
}

TEST(Logging, LevelNames) {
  EXPECT_STREQ(to_string(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(to_string(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace simty
