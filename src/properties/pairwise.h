// PairwisePropertyTool: enforces the pairwise property (Sec. V-C).
//
// For each response2post instantiation (sonSchema: user / post /
// response2post) the property is the distribution rho_R(x, y) = number
// of ordered user pairs (u, v) where u responded x times to v's posts
// and v responded y times to u's (Definition 5), with the huge
// (0, 0) mass implicit: sum rho = |U| (|U| - 1) (Theorem 4, P3).
// Self-responses are kept in the separate distribution rho_S(x) =
// number of users with x responses to their own posts (Theorems 10-11).
//
// Tweaking follows Algorithm 3: deficit vectors pull the Manhattan-
// closest surplus pair and add/remove response tuples; when a user has
// no post to respond to, a post is stolen from a user with several
// (shifting its responses to their other posts first) or, in the last
// resort, newly created - at most |U| - |P| creations (Theorem 5).
#pragma once

#include <map>
#include <set>
#include <vector>

#include "aspect/property_tool.h"
#include "aspect/tweak_context.h"
#include "stats/freq_dist.h"

namespace aspect {

class PairwisePropertyTool : public PropertyTool {
 public:
  explicit PairwisePropertyTool(const Schema& schema);

  std::string name() const override { return "pairwise"; }

  std::unique_ptr<PropertyTool> Clone() const override {
    return bound() ? nullptr
                   : std::make_unique<PairwisePropertyTool>(*this);
  }

  Status SetTargetFromDataset(const Database& ground_truth) override;
  Status RepairTarget() override;
  Status CheckTargetFeasible() const override;
  Status SaveTarget(std::ostream* out) const override;
  Status LoadTarget(std::istream* in) override;

  Status Bind(Database* db) override;
  void Unbind() override;
  bool bound() const override { return db_ != nullptr; }
  double Error() const override;
  double ValidationPenalty(const Modification& mod) const override;
  /// Exact composite vote: counted-response changes of all
  /// modifications are simulated against one shared n-overlay, so a
  /// batch whose tuples move the same ordered pair is priced jointly.
  /// Assumes disjoint tuples (the ApplyBatch caller contract).
  /// `veto_cap` licenses an early exit: one change moves a spec's
  /// penalty numerator by at most 4 (a pair change touches four rho
  /// entries by one, a self change two), so once the running exact
  /// numerators minus the remaining movement budget provably clear
  /// the cap, the tail is left unpriced and that lower bound is
  /// returned. A batch priced to completion goes through the same
  /// final pricing loops as the uncapped path, bit for bit.
  double ValidationPenaltyBatch(std::span<const Modification> mods,
                                double veto_cap) const override;
  using PropertyTool::ValidationPenaltyBatch;
  /// Whole-table row structure of the response and post tables
  /// (inserts, deletes, re-authoring) plus whole-table reads of the
  /// user table (pair sampling and the implicit zero mass).
  AccessScope DeclaredScope() const override;
  Status Tweak(TweakContext* ctx) override;

  void OnApplied(const Modification& mod,
                 const std::vector<Value>& old_values,
                 TupleId new_tuple) override;

  int num_specs() const { return static_cast<int>(specs_.size()); }
  /// Current ordered-pair distribution of spec s (zero pair implicit).
  const FrequencyDistribution& CurrentRho(int s) const {
    return rho_[static_cast<size_t>(s)];
  }
  const FrequencyDistribution& TargetRho(int s) const {
    return target_rho_[static_cast<size_t>(s)];
  }
  const FrequencyDistribution& CurrentRhoSelf(int s) const {
    return rho_self_[static_cast<size_t>(s)];
  }

 private:
  using UserPair = std::pair<TupleId, TupleId>;

  struct SpecState {
    // Ordered response counts n(u, v); only non-zero entries stored.
    std::map<UserPair, int64_t> n;
    // Response tuple ids per ordered (responder, author) pair.
    std::map<UserPair, std::vector<TupleId>> responses;
    // (x, y) -> ordered pairs currently realizing it (x=n(u,v)).
    std::map<FrequencyDistribution::Key, std::set<UserPair>> buckets;
    // x -> users with x self-responses.
    std::map<int64_t, std::set<TupleId>> self_buckets;
    // Response tuple caches (by slot): responder / post; -1 unknown.
    std::vector<TupleId> resp_user;
    std::vector<TupleId> resp_post;
    // Post caches: author by slot; posts per user; responses per post.
    std::vector<TupleId> post_author;
    std::map<TupleId, std::vector<TupleId>> posts_by_user;
    std::map<TupleId, std::vector<TupleId>> responses_by_post;
    // Posts created by the tweaking algorithm (Theorem 5 bound).
    int64_t created_posts = 0;
    // Total responses received per user (for pair selection: giving a
    // user with existing incoming responses more of them leaves the
    // linear reachability of the user level untouched).
    std::map<TupleId, int64_t> incoming;
  };

  /// One counted-response change: user `u` responds to `v` delta more
  /// times (u == v for self-responses).
  struct NChange {
    int spec;
    TupleId u;
    TupleId v;
    int64_t delta;
  };

  std::vector<NChange> CollectNChanges(const Modification& mod,
                                       TupleId new_tuple,
                                       bool pre_apply) const;
  void ApplyNChange(const NChange& c);
  /// Simulated error change of applying `changes` (shared across the
  /// single and batch validation paths). A finite `veto_cap` allows
  /// stopping as soon as the final penalty is provably above the cap,
  /// returning a conservative lower bound that is itself above it.
  double PenaltyOfChanges(const std::vector<NChange>& changes,
                          double veto_cap = kNoPenaltyCap) const;
  /// Maintains the structural caches (authors, posts lists, response
  /// lists) for an applied modification.
  void ApplyStructural(const Modification& mod,
                       const std::vector<Value>& old_values,
                       TupleId new_tuple);

  double SpecError(int s) const;
  int64_t CurrentZeroPairs(int s) const;
  int64_t TargetZeroPairs(int s) const;
  int64_t CurrentZeroSelf(int s) const;
  int64_t TargetZeroSelf(int s) const;

  /// Ensures user `v` has at least one post, stealing or creating one
  /// (the Theorem 5 procedure). Returns the post id or kInvalidTuple.
  TupleId EnsurePost(TweakContext* ctx, int s, TupleId v);

  /// Adds (delta > 0) or removes (delta < 0) |delta| responses from
  /// `u` to `v`'s posts.
  bool AdjustResponses(TweakContext* ctx, int s, TupleId u, TupleId v,
                       int64_t delta);

  /// Converts one pair from vector `from` to `to` (Algorithm 3 unit);
  /// zero vectors select a fresh non-interacting pair.
  bool ConvertPair(TweakContext* ctx, int s,
                   const FrequencyDistribution::Key& from,
                   const FrequencyDistribution::Key& to);
  /// Same for the self distribution (Theorem 11 unit).
  bool ConvertSelf(TweakContext* ctx, int s, int64_t from, int64_t to);

  Schema schema_;
  std::vector<ResponseSpec> specs_;
  // table -> spec ids where it is the response / post table.
  std::map<int, std::vector<int>> response_index_;
  std::map<int, std::vector<int>> post_index_;

  Database* db_ = nullptr;
  std::vector<SpecState> state_;
  std::vector<FrequencyDistribution> rho_;       // dim 2, ordered pairs
  std::vector<FrequencyDistribution> rho_self_;  // dim 1

  std::vector<FrequencyDistribution> target_rho_;
  std::vector<FrequencyDistribution> target_rho_self_;
  std::vector<int64_t> target_users_;
  int max_attempts_ = 24;
};

}  // namespace aspect
