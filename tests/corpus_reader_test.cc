#include "io/corpus_reader.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/resource.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/study.h"
#include "io/fault_fs.h"
#include "twitter/generator.h"

namespace stir::io {
namespace {

/// One generated corpus persisted as a TSV pair and as an arena. The
/// fixture is built once per process (SetUpTestSuite) in a directory of
/// its own: ctest runs every case as a separate process, so fixed paths
/// would let sibling cases overwrite or delete each other's files.
class CorpusReaderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::string pattern = ::testing::TempDir() + "corpus_reader_XXXXXX";
    ASSERT_NE(::mkdtemp(pattern.data()), nullptr);
    dir_ = new std::filesystem::path(pattern);
    const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
    twitter::DatasetGenerator generator(
        &db, twitter::DatasetGenerator::KoreanConfig(0.02));
    data_ = new twitter::GeneratedData(generator.Generate());
    users_tsv_ = Path("users.tsv");
    tweets_tsv_ = Path("tweets.tsv");
    arena_ = Path("reader.corpus");
    ASSERT_TRUE(data_->dataset.SaveTsv(users_tsv_, tweets_tsv_).ok());
    ASSERT_TRUE(CorpusWriter::WriteDataset(data_->dataset, arena_).ok());
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  static std::string Path(const char* name) { return (*dir_ / name).string(); }

  static CorpusSpec TsvSpec() {
    CorpusSpec spec;
    spec.users_path = users_tsv_;
    spec.tweets_path = tweets_tsv_;
    return spec;
  }
  static CorpusSpec ArenaSpec() {
    CorpusSpec spec;
    spec.corpus_path = arena_;
    return spec;
  }

  /// A fresh, empty directory installed as TMPDIR for the scope of one
  /// test, so temp files ArenaFromDataset leaves behind can be counted.
  class ScopedTmpDir {
   public:
    explicit ScopedTmpDir(const char* name) : path_(*dir_ / name) {
      std::filesystem::remove_all(path_);
      std::filesystem::create_directories(path_);
      const char* old = std::getenv("TMPDIR");
      had_old_ = old != nullptr;
      if (had_old_) old_ = old;
      ::setenv("TMPDIR", path_.c_str(), 1);
    }
    ~ScopedTmpDir() {
      if (had_old_) {
        ::setenv("TMPDIR", old_.c_str(), 1);
      } else {
        ::unsetenv("TMPDIR");
      }
    }
    size_t entries() const {
      size_t n = 0;
      for (const auto& entry : std::filesystem::directory_iterator(path_)) {
        (void)entry;
        ++n;
      }
      return n;
    }

   private:
    std::filesystem::path path_;
    bool had_old_ = false;
    std::string old_;
  };

  static std::filesystem::path* dir_;
  static twitter::GeneratedData* data_;
  static std::string users_tsv_;
  static std::string tweets_tsv_;
  static std::string arena_;
};

std::filesystem::path* CorpusReaderTest::dir_ = nullptr;
twitter::GeneratedData* CorpusReaderTest::data_ = nullptr;
std::string CorpusReaderTest::users_tsv_;
std::string CorpusReaderTest::tweets_tsv_;
std::string CorpusReaderTest::arena_;

TEST_F(CorpusReaderTest, SniffsEveryFormatFromMagicBytes) {
  auto tsv = CorpusReader::SniffFormat(tweets_tsv_);
  ASSERT_TRUE(tsv.ok());
  EXPECT_EQ(*tsv, CorpusFormat::kTsv);
  auto arena = CorpusReader::SniffFormat(arena_);
  ASSERT_TRUE(arena.ok());
  EXPECT_EQ(*arena, CorpusFormat::kArenaV3);
  EXPECT_FALSE(CorpusReader::SniffFormat("no/such/file").ok());

  // The retired STIRCOL column snapshot is refused by name, never parsed
  // as TSV.
  for (const char* magic : {"STIRCOL1", "STIRCOL2"}) {
    const std::string path = Path(magic);
    std::ofstream(path) << magic << "\x01\x02\x03";
    auto sniffed = CorpusReader::SniffFormat(path);
    ASSERT_FALSE(sniffed.ok()) << magic;
    EXPECT_TRUE(sniffed.status().IsInvalidArgument()) << magic;
    EXPECT_NE(sniffed.status().message().find("STIRCOL"), std::string::npos);
    EXPECT_NE(sniffed.status().message().find("retired"), std::string::npos);

    CorpusSpec spec;
    spec.users_path = users_tsv_;
    spec.tweets_path = path;
    auto opened = CorpusReader::Open(spec);
    ASSERT_FALSE(opened.ok()) << magic;
    EXPECT_TRUE(opened.status().IsInvalidArgument()) << magic;
  }
}

TEST_F(CorpusReaderTest, EveryFormatDecodesTheSameCorpus) {
  auto tsv = CorpusReader::Open(TsvSpec());
  ASSERT_TRUE(tsv.ok()) << tsv.status().ToString();
  EXPECT_EQ(tsv->format(), CorpusFormat::kTsv);
  auto arena = CorpusReader::Open(ArenaSpec());
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  EXPECT_EQ(arena->format(), CorpusFormat::kArenaV3);

  const twitter::Dataset& d = data_->dataset;
  for (const CorpusReader* reader : {&*tsv, &*arena}) {
    const CorpusView& view = reader->view();
    EXPECT_EQ(view.user_count(), d.users().size());
    EXPECT_EQ(view.tweet_count(), d.tweets().size());
    EXPECT_EQ(view.gps_tweet_count(), d.gps_tweet_count());
    EXPECT_EQ(view.total_tweet_count(), d.total_tweet_count());
    for (size_t row = 0; row < view.tweet_count(); ++row) {
      ASSERT_EQ(view.tweet_id(row), d.tweets()[row].id) << row;
    }
  }
}

TEST_F(CorpusReaderTest, MisroutedPathsAreRejectedWithGuidance) {
  // An arena corpus handed in as tweets_path, and a TSV handed in as
  // corpus_path, both fail with messages pointing at the right slot.
  CorpusSpec wrong_slot;
  wrong_slot.users_path = users_tsv_;
  wrong_slot.tweets_path = arena_;
  auto a = CorpusReader::Open(wrong_slot);
  ASSERT_FALSE(a.ok());
  EXPECT_NE(a.status().ToString().find("corpus_path"), std::string::npos);

  CorpusSpec tsv_as_corpus;
  tsv_as_corpus.corpus_path = tweets_tsv_;
  auto b = CorpusReader::Open(tsv_as_corpus);
  ASSERT_FALSE(b.ok());

  CorpusSpec both = ArenaSpec();
  both.users_path = users_tsv_;
  both.tweets_path = tweets_tsv_;
  EXPECT_FALSE(CorpusReader::Open(both).ok());

  CorpusSpec neither;
  EXPECT_FALSE(CorpusReader::Open(neither).ok());
}

TEST_F(CorpusReaderTest, StudyReportsAreByteIdenticalAcrossFormats) {
  // The same study over the TSV pair (converted at load) and over the
  // arena file renders the same bytes — funnel, group table, and
  // report.json.
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  core::CorrelationStudy study(&db);

  auto tsv = CorpusReader::Open(TsvSpec());
  ASSERT_TRUE(tsv.ok());
  core::StudyResult from_tsv = study.Run(tsv->view());

  auto arena = CorpusReader::Open(ArenaSpec());
  ASSERT_TRUE(arena.ok());
  core::StudyResult from_arena = study.Run(arena->view());

  EXPECT_EQ(from_tsv.FunnelString(), from_arena.FunnelString());
  EXPECT_EQ(from_tsv.GroupTableString(), from_arena.GroupTableString());
  EXPECT_EQ(core::StudyReportJsonString(from_tsv),
            core::StudyReportJsonString(from_arena));
}

TEST_F(CorpusReaderTest, ColumnarStudyMatchesDatasetStudyInParallel) {
  // Sharded refinement over the arena file merges in the same order as
  // over the in-memory dataset's conversion, faults and all.
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  StudyConfig config;
  config.threads = 4;
  config.fault.error_rate = 0.1;
  config.retry.max_attempts = 2;
  core::CorrelationStudy study(&db, config);

  auto converted = ArenaFromDataset(data_->dataset);
  ASSERT_TRUE(converted.ok()) << converted.status().ToString();
  core::StudyResult from_dataset = study.Run(*converted);

  auto arena = CorpusReader::Open(ArenaSpec());
  ASSERT_TRUE(arena.ok());
  core::StudyResult from_arena = study.Run(arena->view());

  EXPECT_EQ(from_dataset.FunnelString(), from_arena.FunnelString());
  EXPECT_EQ(from_dataset.GroupTableString(), from_arena.GroupTableString());
  EXPECT_EQ(core::StudyReportJsonString(from_dataset),
            core::StudyReportJsonString(from_arena));
}

TEST_F(CorpusReaderTest, MaterializeDatasetRoundTripsAnArena) {
  auto arena = CorpusReader::Open(ArenaSpec());
  ASSERT_TRUE(arena.ok());
  auto materialized = MaterializeDataset(arena->view());
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  const twitter::Dataset& d = data_->dataset;
  ASSERT_EQ(materialized->users().size(), d.users().size());
  ASSERT_EQ(materialized->tweets().size(), d.tweets().size());
  for (size_t i = 0; i < d.users().size(); ++i) {
    EXPECT_EQ(materialized->users()[i].profile_location,
              d.users()[i].profile_location);
  }
  for (size_t i = 0; i < d.tweets().size(); ++i) {
    EXPECT_EQ(materialized->tweets()[i].text, d.tweets()[i].text);
  }
}

TEST_F(CorpusReaderTest, TsvLoadDrawsNothingFromTheStorageFaultSchedule) {
  // The conversion's scratch writes are not the simulated disk's: they
  // draw no fault-schedule index and no ENOSPC budget. With every write
  // class certain to fire, a converted load still succeeds and leaves
  // the ledger at zero.
  FaultFsOptions certain;
  certain.seed = 5;
  certain.write_error_rate = 1.0;
  certain.fsync_error_rate = 1.0;
  certain.eintr_rate = 1.0;
  certain.enospc_after_bytes = 0;
  FaultFs::Instance().Configure(certain);
  auto loaded = CorpusReader::Open(TsvSpec());
  const FaultFsStats stats = FaultFs::Instance().stats();
  FaultFs::Instance().Reset();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(stats.injected, 0);
  EXPECT_EQ(stats.surfaced, 0);
  EXPECT_EQ(stats.recovered, 0);

  // And the schedule after a load is the schedule of a fresh layer: the
  // same write sequence meets the same decisions.
  FaultFsOptions coin;
  coin.seed = 11;
  coin.write_error_rate = 0.5;
  const std::string sink = Path("fault_sink");
  auto decisions = [&](bool load_first) {
    FaultFs::Instance().Configure(coin);
    if (load_first) {
      EXPECT_TRUE(CorpusReader::Open(TsvSpec()).ok());
    }
    std::vector<bool> out;
    std::FILE* f = std::fopen(sink.c_str(), "wb");
    for (int i = 0; i < 32; ++i) {
      out.push_back(FaultFs::Instance().Fwrite("x", 1, 1, f) == 1);
    }
    std::fclose(f);
    FaultFs::Instance().Reset();
    return out;
  };
  EXPECT_EQ(decisions(true), decisions(false));
}

TEST_F(CorpusReaderTest, ConvertedCorpusHasNoVerifyWindows) {
  // Page-flip schedules apply to real arena files only: the converted
  // view exposes no windows, so nothing can be flipped or quarantined.
  auto tsv = CorpusReader::Open(TsvSpec());
  ASSERT_TRUE(tsv.ok());
  EXPECT_EQ(tsv->view().window_count(), 0);
  auto arena = CorpusReader::Open(ArenaSpec());
  ASSERT_TRUE(arena.ok());
  EXPECT_GT(arena->view().window_count(), 0);

  FaultFsOptions flips;
  flips.seed = 3;
  flips.page_flip_rate = 1.0;
  FaultFs::Instance().Configure(flips);
  EXPECT_EQ(tsv->view().ReverifyAllWindows(), 0);
  EXPECT_EQ(FaultFs::Instance().stats().page_flips, 0);
  EXPECT_EQ(arena->view().ReverifyAllWindows(), arena->view().window_count());
  FaultFs::Instance().Reset();
}

TEST_F(CorpusReaderTest, OpenLeavesNoTempFileBehind) {
  ScopedTmpDir tmp("tmp_open");
  ASSERT_TRUE(CorpusReader::Open(TsvSpec()).ok());
  EXPECT_EQ(tmp.entries(), 0u);

  // A TSV load that fails before conversion.
  {
    CorpusSpec bad = TsvSpec();
    bad.users_path = tweets_tsv_;
    EXPECT_FALSE(CorpusReader::Open(bad).ok());
  }
  EXPECT_EQ(tmp.entries(), 0u);

  // A conversion that fails mid-write: a file-size limit makes the
  // writer's output past the first page fail with EFBIG.
  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  struct rlimit small = saved;
  small.rlim_cur = 4096;
  ::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);
  auto converted = ArenaFromDataset(data_->dataset);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  ::signal(SIGXFSZ, SIG_DFL);
  EXPECT_FALSE(converted.ok());
  EXPECT_EQ(tmp.entries(), 0u);
}

TEST_F(CorpusReaderTest, FormatNamesAreStable) {
  EXPECT_STREQ(CorpusFormatName(CorpusFormat::kTsv), "tsv");
  EXPECT_STREQ(CorpusFormatName(CorpusFormat::kArenaV3), "arena-v3");
}

}  // namespace
}  // namespace stir::io
