#include "io/corpus_reader.h"

#include <stdlib.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "io/atomic_file.h"
#include "io/fault_fs.h"
#include "io/truth_sidecar.h"

namespace stir::io {

namespace {

/// The STIRCOL tweet column snapshot (v1 and v2), paired with a users
/// TSV. Retired: recognized only to refuse it with a clear error.
constexpr std::string_view kColumnV1Magic = "STIRCOL1";
constexpr std::string_view kColumnV2Magic = "STIRCOL2";

/// The sidecar path when one exists next to `data_path`, else "".
std::string DetectTruthSidecar(const std::string& data_path) {
  std::string candidate = TruthSidecarPath(data_path);
  return PathExists(candidate) ? candidate : std::string();
}

}  // namespace

const char* CorpusFormatName(CorpusFormat format) {
  switch (format) {
    case CorpusFormat::kTsv:
      return "tsv";
    case CorpusFormat::kArenaV3:
      return "arena-v3";
  }
  return "unknown";
}

StatusOr<CorpusFormat> CorpusReader::SniffFormat(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open for read: " + path);
  }
  char magic[8] = {0};
  size_t got = std::fread(magic, 1, sizeof(magic), f);
  std::fclose(f);
  std::string_view head(magic, got);
  if (head == kCorpusMagic) return CorpusFormat::kArenaV3;
  if (head == kColumnV1Magic || head == kColumnV2Magic) {
    return Status::InvalidArgument(
        path + " is a STIRCOL column snapshot, a retired format; "
               "regenerate the corpus as TSV or as an arena "
               "(stir_cli generate --corpus)");
  }
  return CorpusFormat::kTsv;
}

StatusOr<CorpusReader> CorpusReader::Open(const CorpusSpec& spec) {
  CorpusReader reader;

  if (!spec.corpus_path.empty()) {
    if (!spec.users_path.empty() || !spec.tweets_path.empty()) {
      return Status::InvalidArgument(
          "pass either corpus_path or users_path+tweets_path, not both");
    }
    STIR_ASSIGN_OR_RETURN(CorpusFormat format,
                          SniffFormat(spec.corpus_path));
    if (format != CorpusFormat::kArenaV3) {
      return Status::InvalidArgument(
          spec.corpus_path + " is " + CorpusFormatName(format) +
          ", not a self-contained arena corpus; pass it as users/tweets");
    }
    STIR_ASSIGN_OR_RETURN(reader.view_,
                          CorpusView::Open(spec.corpus_path, spec.view));
    reader.format_ = CorpusFormat::kArenaV3;
    reader.truth_path_ = DetectTruthSidecar(spec.corpus_path);
    return reader;
  }

  if (spec.users_path.empty() || spec.tweets_path.empty()) {
    return Status::InvalidArgument(
        "CorpusSpec needs corpus_path or users_path+tweets_path");
  }
  STIR_ASSIGN_OR_RETURN(CorpusFormat format, SniffFormat(spec.tweets_path));
  if (format == CorpusFormat::kArenaV3) {
    return Status::InvalidArgument(
        spec.tweets_path +
        " is a self-contained arena corpus; pass it as corpus_path "
        "(it already carries the user table)");
  }
  STIR_ASSIGN_OR_RETURN(
      twitter::Dataset dataset,
      twitter::Dataset::LoadTsv(spec.users_path, spec.tweets_path, spec.tsv,
                                &reader.tsv_stats_));
  STIR_ASSIGN_OR_RETURN(reader.view_, ArenaFromDataset(dataset));
  reader.format_ = CorpusFormat::kTsv;
  reader.truth_path_ = DetectTruthSidecar(spec.tweets_path);
  return reader;
}

StatusOr<CorpusView> ArenaFromDataset(const twitter::Dataset& dataset) {
  FaultFs::ScopedBypass bypass;
  std::error_code ec;
  std::filesystem::path dir = std::filesystem::temp_directory_path(ec);
  if (ec) return Status::IOError("no temp directory: " + ec.message());
  std::string path = (dir / "stir-arena-XXXXXX").string();
  int fd = ::mkstemp(path.data());
  if (fd < 0) {
    return Status::IOError("mkstemp failed under " + dir.string() + ": " +
                           std::strerror(errno));
  }
  ::close(fd);
  StatusOr<CorpusView> view = [&]() -> StatusOr<CorpusView> {
    CorpusWriterOptions options;
    options.fsync = false;
    STIR_RETURN_IF_ERROR(
        CorpusWriter::WriteDataset(dataset, path, options).status());
    CorpusViewOptions view_options;
    view_options.verify_crc = false;
    return CorpusView::Open(path, view_options);
  }();
  ::unlink(path.c_str());
  return view;
}

StatusOr<twitter::Dataset> MaterializeDataset(const CorpusView& view) {
  twitter::Dataset dataset;
  for (size_t row = 0; row < view.user_count(); ++row) {
    twitter::User user = view.MaterializeUser(row);
    if (dataset.FindUser(user.id) != nullptr) {
      return Status::InvalidArgument("corpus " + view.path() +
                                     ": duplicate user id " +
                                     std::to_string(user.id));
    }
    dataset.AddUser(std::move(user));
  }
  for (size_t row = 0; row < view.tweet_count(); ++row) {
    dataset.AddTweet(view.MaterializeTweet(row));
  }
  return dataset;
}

}  // namespace stir::io
