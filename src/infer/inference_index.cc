#include "infer/inference_index.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"
#include "io/corpus.h"
#include "text/normalize.h"

namespace stir::infer {

EvidenceBuilder::EvidenceBuilder(const geo::AdminDb* db)
    : db_(db), matcher_(db) {
  STIR_CHECK(db != nullptr);
}

void EvidenceBuilder::AddUser(twitter::UserId user) {
  users_.try_emplace(user);
}

void EvidenceBuilder::AddTweet(const twitter::Tweet& tweet) {
  Accum& accum = users_[tweet.user];
  ++accum.tweets;

  if (tweet.gps.has_value()) {
    auto located = db_->Locate(*tweet.gps);
    if (located.ok()) {
      RegionEvidence& region = accum.regions[*located];
      region.region = *located;
      ++region.gps_tweets;
      if (IsNightHour(HourOfDay(tweet.time))) ++region.night_gps_tweets;
    }
  }

  if (!tweet.text.empty()) {
    std::vector<std::string> tokens = text::TokenizeTweet(tweet.text);
    for (const text::PhraseMatch& match : matcher_.Match(tokens)) {
      // Only exact, unambiguous county mentions vote: a name shared by
      // several states (six Korean metros have a "Jung-gu") or a fuzzy
      // near-miss is noise, not evidence.
      if (match.kind != text::PhraseKind::kCounty || match.fuzzy ||
          match.regions.size() != 1) {
        continue;
      }
      RegionEvidence& region = accum.regions[match.regions.front()];
      region.region = match.regions.front();
      ++region.text_votes;
    }
  }
}

std::shared_ptr<const InferenceIndex> EvidenceBuilder::Build() const {
  return std::make_shared<const InferenceIndex>(Assemble());
}

InferenceIndex EvidenceBuilder::Assemble() const {
  InferenceIndex index;
  index.db_ = db_;
  index.users_.reserve(users_.size());
  for (const auto& [user, accum] : users_) {
    UserEvidence evidence;
    evidence.user = user;
    evidence.tweets = accum.tweets;
    evidence.regions.reserve(accum.regions.size());
    for (const auto& [region_id, region] : accum.regions) {
      evidence.gps_tweets += region.gps_tweets;
      evidence.text_votes += region.text_votes;
      evidence.regions.push_back(region);
    }
    std::sort(evidence.regions.begin(), evidence.regions.end(),
              [](const RegionEvidence& a, const RegionEvidence& b) {
                return a.region < b.region;
              });
    index.users_.push_back(std::move(evidence));
  }
  std::sort(index.users_.begin(), index.users_.end(),
            [](const UserEvidence& a, const UserEvidence& b) {
              return a.user < b.user;
            });
  return index;
}

InferenceIndex InferenceIndex::Build(const io::CorpusView& view,
                                     const geo::AdminDb& db) {
  EvidenceBuilder builder(&db);
  twitter::Tweet tweet;
  for (size_t row = 0; row < view.user_count(); ++row) {
    builder.AddUser(view.user_id(row));
  }
  for (size_t row = 0; row < view.tweet_count(); ++row) {
    tweet.id = view.tweet_id(row);
    tweet.user = view.user_id(view.tweet_user_row(row));
    tweet.time = view.tweet_time(row);
    if (view.tweet_has_gps(row)) {
      tweet.gps = view.tweet_gps(row);
    } else {
      tweet.gps.reset();
    }
    tweet.text.assign(view.tweet_text(row));
    builder.AddTweet(tweet);
  }
  return builder.Assemble();
}

const UserEvidence* InferenceIndex::FindUser(twitter::UserId user) const {
  auto it = std::lower_bound(users_.begin(), users_.end(), user,
                             [](const UserEvidence& e, twitter::UserId id) {
                               return e.user < id;
                             });
  if (it == users_.end() || it->user != user) return nullptr;
  return &*it;
}

int64_t InferenceIndex::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(*this)) +
                  static_cast<int64_t>(users_.capacity() *
                                       sizeof(UserEvidence));
  for (const UserEvidence& user : users_) {
    bytes += static_cast<int64_t>(user.regions.capacity() *
                                  sizeof(RegionEvidence));
  }
  return bytes;
}

}  // namespace stir::infer
