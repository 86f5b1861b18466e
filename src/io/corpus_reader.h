#ifndef STIR_IO_CORPUS_READER_H_
#define STIR_IO_CORPUS_READER_H_

#include <string>

#include "common/status.h"
#include "io/corpus.h"
#include "twitter/dataset.h"

namespace stir::io {

/// The on-disk corpus encodings the reader accepts.
enum class CorpusFormat {
  kTsv,      // users TSV + tweets TSV (the human-readable interchange format)
  kArenaV3,  // self-contained STIRARN3 arena corpus (users + tweets)
};

const char* CorpusFormatName(CorpusFormat format);

/// What to open. Either `corpus_path` names a self-contained arena file,
/// or `users_path` + `tweets_path` name a TSV pair; the reader sniffs
/// file contents (magic bytes, never extensions) and picks the decoder.
struct CorpusSpec {
  std::string corpus_path;
  std::string users_path;
  std::string tweets_path;
  /// Malformed-row handling for the TSV decoder (strict by default).
  twitter::Dataset::TsvLoadOptions tsv;
  /// Arena open options (CRC verification on by default).
  CorpusViewOptions view;
};

/// The one front door for corpus input (DESIGN.md §14). Every input ends
/// up as a CorpusView, the only corpus type the study, refinement and
/// inference read: an arena file is mapped zero-copy, and a TSV pair is
/// decoded and converted once at Open (ArenaFromDataset).
///
///   STIR_ASSIGN_OR_RETURN(auto reader, CorpusReader::Open(spec));
///   StudyResult result = study.Run(reader.view());
class CorpusReader {
 public:
  /// Sniffs the on-disk format of `path` from its leading bytes.
  /// IOError when unreadable; InvalidArgument for a retired STIRCOL
  /// column snapshot; a file with no known magic is TSV.
  static StatusOr<CorpusFormat> SniffFormat(const std::string& path);

  static StatusOr<CorpusReader> Open(const CorpusSpec& spec);

  CorpusFormat format() const { return format_; }
  const CorpusView& view() const { return view_; }

  /// Quarantine counts from the TSV decoder (zero for an arena).
  const twitter::Dataset::TsvLoadStats& tsv_stats() const {
    return tsv_stats_;
  }

  /// True when a ground-truth sidecar (truth_sidecar.h) sits next to the
  /// opened corpus — `<corpus>.truth`, or `<tweets>.truth` for a TSV
  /// pair. Surfaced so evaluation tooling (`stir_cli infer`) can score
  /// predictions without regenerating; the serving and inference layers
  /// never read it.
  bool has_truth() const { return !truth_path_.empty(); }
  const std::string& truth_path() const { return truth_path_; }

 private:
  CorpusFormat format_ = CorpusFormat::kTsv;
  CorpusView view_;
  twitter::Dataset::TsvLoadStats tsv_stats_;
  std::string truth_path_;  ///< Empty when no sidecar was found.
};

/// Converts an in-memory dataset into an arena view, for callers whose
/// corpus is not on disk as an arena (TSV input, generated test data).
/// The dataset is written with CorpusWriter::WriteDataset (insertion
/// order kept, so tweet row == dataset index) to a uniquely named file
/// under the temp directory, which is unlinked as soon as it is mapped.
/// The write bypasses io::FaultFs and skips fsync, and the view has no
/// verify windows: the file is process-private scratch, never durable
/// state, so storage fault schedules apply only to real arena files.
StatusOr<CorpusView> ArenaFromDataset(const twitter::Dataset& dataset);

/// Decodes an arena view into a row-oriented Dataset (field-identical to
/// the corpus the writer ingested, in the same order). InvalidArgument
/// on referential corruption a crafted file could smuggle past
/// structural checks (duplicate user ids).
StatusOr<twitter::Dataset> MaterializeDataset(const CorpusView& view);

}  // namespace stir::io

#endif  // STIR_IO_CORPUS_READER_H_
