#include "core/report.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/csv.h"
#include "common/string_util.h"
#include "twitter/generator.h"
#include "test_corpus.h"

namespace stir::core {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  ReportTest() : db_(geo::AdminDb::KoreanDistricts()) {
    twitter::DatasetGenerator generator(
        &db_, twitter::DatasetGenerator::KoreanConfig(0.05));
    data_ = generator.Generate();
    CorrelationStudy study(&db_);
    result_ = study.Run(test::ArenaOf(data_.dataset));
  }

  const geo::AdminDb& db_;
  twitter::GeneratedData data_;
  StudyResult result_;
};

TEST_F(ReportTest, WritesThreeConsistentCsvs) {
  std::string dir = ::testing::TempDir();
  ASSERT_TRUE(WriteStudyReportCsv(result_, dir).ok());

  auto funnel = ReadCsvFile(dir + "/funnel.csv");
  ASSERT_TRUE(funnel.ok());
  ASSERT_EQ(funnel->size(), 11u);  // header + 10 stages
  EXPECT_EQ((*funnel)[0], (std::vector<std::string>{"stage", "value"}));
  EXPECT_EQ((*funnel)[1][1],
            StrFormat("%lld",
                      static_cast<long long>(result_.funnel.crawled_users)));

  auto groups = ReadCsvFile(dir + "/groups.csv");
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), 1u + kNumTopKGroups);
  int64_t users_total = 0;
  for (size_t i = 1; i < groups->size(); ++i) {
    users_total += *ParseInt64((*groups)[i][1]);
  }
  EXPECT_EQ(users_total, result_.final_users);

  auto users = ReadCsvFile(dir + "/users.csv");
  ASSERT_TRUE(users.ok());
  EXPECT_EQ(users->size(), 1u + result_.groupings.size());
  // Per-user rows carry valid group names and positive GPS counts.
  for (size_t i = 1; i < users->size(); ++i) {
    const auto& row = (*users)[i];
    ASSERT_EQ(row.size(), 6u);
    EXPECT_GT(*ParseInt64(row[3]), 0);  // gps_tweets
  }

  for (const char* name : {"/funnel.csv", "/groups.csv", "/users.csv"}) {
    std::remove((dir + name).c_str());
  }
}

TEST_F(ReportTest, FailsOnMissingDirectory) {
  EXPECT_TRUE(WriteStudyReportCsv(result_, "/nonexistent/report/dir")
                  .IsIOError());
}

TEST_F(ReportTest, HistogramCoversAllFinalUsers) {
  std::string rendered = RenderGpsTweetHistogram(result_, 8);
  EXPECT_NE(rendered.find("GPS tweets per final user"), std::string::npos);
  // 8 bucket rows.
  EXPECT_EQ(std::count(rendered.begin(), rendered.end(), '\n'), 9);
}

}  // namespace
}  // namespace stir::core
