#ifndef STIR_TESTS_TEST_CORPUS_H_
#define STIR_TESTS_TEST_CORPUS_H_

#include <utility>

#include "common/logging.h"
#include "io/corpus_reader.h"

namespace stir::test {

/// The arena view of an in-memory dataset through io::ArenaFromDataset —
/// the conversion the corpus reader applies to TSV input — for tests that
/// generate or hand-build their data. Aborts when the conversion fails.
inline io::CorpusView ArenaOf(const twitter::Dataset& dataset) {
  StatusOr<io::CorpusView> view = io::ArenaFromDataset(dataset);
  STIR_CHECK(view.ok()) << view.status().ToString();
  return std::move(view).value();
}

}  // namespace stir::test

#endif  // STIR_TESTS_TEST_CORPUS_H_
