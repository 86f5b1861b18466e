// Topical dataset collection, the "Lady Gaga dataset" workflow: pull
// tweets matching a keyword through the simulated Search and Streaming
// APIs, assemble a new Dataset from what the APIs returned (as the paper
// did), and run the correlation study on the collected corpus.
//
// Usage: topical_collection [scale]

#include <cstdio>
#include <cstdlib>
#include <set>

#include "core/study.h"
#include "geo/admin_db.h"
#include "io/corpus_reader.h"
#include "twitter/api.h"
#include "twitter/generator.h"

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.3;
  if (scale <= 0.0) scale = 0.3;

  // The "real world": a global tweet stream we can only see through the
  // public APIs.
  const stir::geo::AdminDb& world = stir::geo::AdminDb::WorldCities();
  stir::twitter::DatasetGenerator generator(
      &world, stir::twitter::DatasetGenerator::LadyGagaConfig(scale));
  stir::twitter::GeneratedData hidden = generator.Generate();
  std::printf("world stream: %zu users, %zu materialized tweets\n",
              hidden.dataset.users().size(), hidden.dataset.tweets().size());

  // --- Collection phase -------------------------------------------------
  // 1. Backfill history through the Search API (paged, quota-limited).
  stir::twitter::SearchApi search(&hidden.dataset, /*quota=*/500);
  std::set<stir::twitter::TweetId> collected_ids;
  std::vector<const stir::twitter::Tweet*> collected;
  stir::SimTime until = 0;  // unbounded first page
  int pages = 0;
  while (true) {
    stir::twitter::SearchQuery query;
    query.keyword = "lady gaga";
    query.max_results = 100;
    query.until = until;
    auto page = search.Search(query);
    if (!page.ok() || page->empty()) break;
    ++pages;
    for (const stir::twitter::Tweet* tweet : *page) {
      if (collected_ids.insert(tweet->id).second) collected.push_back(tweet);
    }
    // Next page: strictly older than the oldest tweet seen.
    until = page->back()->time;
    if (static_cast<int64_t>(page->size()) < query.max_results) break;
    if (pages >= 200) break;
  }
  std::printf("search API: %d pages, %zu tweets backfilled\n", pages,
              collected.size());

  // 2. Then follow the live filter stream.
  stir::twitter::StreamingApi stream(&hidden.dataset);
  int64_t streamed = stream.Filter("lady gaga", [&](const auto& tweet) {
    if (collected_ids.insert(tweet.id).second) collected.push_back(&tweet);
  });
  std::printf("streaming API: %lld matching tweets observed, %zu total "
              "collected\n\n",
              static_cast<long long>(streamed), collected.size());

  // --- Assemble the collected corpus ------------------------------------
  stir::twitter::Dataset corpus;
  std::set<stir::twitter::UserId> seen_users;
  for (const stir::twitter::Tweet* tweet : collected) {
    if (seen_users.insert(tweet->user).second) {
      corpus.AddUser(*hidden.dataset.FindUser(tweet->user));
    }
  }
  for (const stir::twitter::Tweet* tweet : collected) {
    corpus.AddTweet(*tweet);
  }
  std::printf("collected corpus: %zu users, %zu tweets (%lld with GPS)\n\n",
              corpus.users().size(), corpus.tweets().size(),
              static_cast<long long>(corpus.gps_tweet_count()));

  // --- Study -------------------------------------------------------------
  auto view = stir::io::ArenaFromDataset(corpus);
  if (!view.ok()) {
    std::fprintf(stderr, "%s\n", view.status().ToString().c_str());
    return 1;
  }
  stir::core::CorrelationStudy study(&world);
  stir::core::StudyResult result = study.Run(*view);
  std::printf("%s\n%s", result.FunnelString().c_str(),
              result.GroupTableString().c_str());
  return 0;
}
