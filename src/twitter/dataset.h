#ifndef STIR_TWITTER_DATASET_H_
#define STIR_TWITTER_DATASET_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "twitter/model.h"

namespace stir::twitter {

/// In-memory tweet corpus: user table + tweet table with a per-user tweet
/// index. Mirrors the paper's collected data: all users carry their total
/// tweet count, but full tweet records are materialized primarily for
/// GPS-tagged posts (plus an optional sample of plain posts) — at the
/// original 11M-tweet scale that is what fits and what the study needs.
class Dataset {
 public:
  Dataset() = default;

  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

  /// Adds a user; ids must be unique (checked).
  void AddUser(User user);
  /// Adds a tweet; its user must already exist (checked).
  void AddTweet(Tweet tweet);

  const std::vector<User>& users() const { return users_; }
  const std::vector<Tweet>& tweets() const { return tweets_; }

  /// Nullptr when absent.
  const User* FindUser(UserId id) const;

  /// Indices into tweets() for one user (empty for unknown users).
  const std::vector<size_t>& TweetIndicesOf(UserId id) const;

  /// Sum of per-user total tweet counts (the full corpus size, which can
  /// exceed tweets().size() when plain tweets are not materialized).
  int64_t total_tweet_count() const;

  /// Materialized tweets that carry GPS.
  int64_t gps_tweet_count() const { return gps_tweet_count_; }

  /// TSV persistence: a users file (id, handle, location, total_tweets)
  /// and a tweets file (id, user, time, lat, lng, text; lat/lng blank for
  /// plain tweets).
  Status SaveTsv(const std::string& users_path,
                 const std::string& tweets_path) const;
  static StatusOr<Dataset> LoadTsv(const std::string& users_path,
                                   const std::string& tweets_path);

  /// Malformed-row handling for LoadTsv.
  struct TsvLoadOptions {
    /// Strict (the default, and the 2-argument overload's behaviour):
    /// the first malformed row fails the whole load with
    /// InvalidArgument. Lenient: malformed rows — wrong field count,
    /// unparsable ints/coordinates, duplicate user ids, tweets from
    /// unknown users — are quarantined (skipped and counted) and the
    /// valid remainder loads.
    bool strict = true;
  };
  struct TsvLoadStats {
    int64_t quarantined_user_rows = 0;
    int64_t quarantined_tweet_rows = 0;
    int64_t quarantined() const {
      return quarantined_user_rows + quarantined_tweet_rows;
    }
  };
  static StatusOr<Dataset> LoadTsv(const std::string& users_path,
                                   const std::string& tweets_path,
                                   const TsvLoadOptions& options,
                                   TsvLoadStats* stats = nullptr);

 private:
  /// Loads only the users file (same format and strict/lenient rules as
  /// LoadTsv) into a dataset with no tweets; LoadTsv's first half.
  static StatusOr<Dataset> LoadUsersTsv(const std::string& users_path,
                                        const TsvLoadOptions& options,
                                        TsvLoadStats* stats);

  std::vector<User> users_;
  std::vector<Tweet> tweets_;
  std::unordered_map<UserId, size_t> user_index_;
  std::unordered_map<UserId, std::vector<size_t>> tweets_by_user_;
  int64_t gps_tweet_count_ = 0;
};

}  // namespace stir::twitter

#endif  // STIR_TWITTER_DATASET_H_
