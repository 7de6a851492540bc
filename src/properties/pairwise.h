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
// Each spec keeps rho and rho_S with their targets in two
// CountGapTables (stats/count_gap.h), which run that loop and measure
// the error; this tool supplies the conversions.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "aspect/property_tool.h"
#include "aspect/tweak_context.h"
#include "properties/pairwise_index.h"
#include "stats/count_gap.h"
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
  /// Current ordered-pair distribution of spec s (zero pair implicit)
  /// and self-response distribution, built from the bound tables;
  /// empty while unbound.
  FrequencyDistribution CurrentRho(int s) const;
  FrequencyDistribution CurrentRhoSelf(int s) const;
  const FrequencyDistribution& TargetRho(int s) const {
    return target_rho_[static_cast<size_t>(s)];
  }

  /// The search index only Tweak reads: per spec the counted responses
  /// of each pair, the posts of each user and the pairs and users
  /// realizing each rho and rho_S key. Tweak builds it from the
  /// statistics on entry and releases it on exit, and while it exists
  /// OnApplied keeps it current. Public so tests can check that upkeep;
  /// requires bound.
  void BuildSearchIndex();
  void ReleaseSearchIndex();

  using Key = FrequencyDistribution::Key;
  using UserPair = std::pair<TupleId, TupleId>;
  /// Layout-free view of spec s's bound state, for comparing
  /// incrementally maintained state with a fresh Bind. The search
  /// index's parts (responses, posts_by_user, buckets, self_buckets)
  /// are empty while it does not exist. Lists are sets because
  /// swap-removal leaves them in an order a fresh build does not
  /// reproduce; empty lists and zero counts are left out.
  struct StateSnapshot {
    std::map<UserPair, int64_t> n;                    // n(u, v) > 0
    std::map<UserPair, std::set<TupleId>> responses;  // counted ones
    std::map<TupleId, std::set<TupleId>> responses_by_post;
    std::map<TupleId, std::set<TupleId>> posts_by_user;
    std::map<TupleId, int64_t> incoming;
    std::map<Key, std::set<UserPair>> buckets;          // rho key -> pairs
    std::map<int64_t, std::set<TupleId>> self_buckets;  // x -> users
    bool operator==(const StateSnapshot&) const = default;
  };
  StateSnapshot Snapshot(int s) const;

 private:
  /// Bound state of one spec (DESIGN.md §15), all flat arrays indexed
  /// by a dense id or a tuple slot. A response counts iff its responder
  /// and its post's author are both non-NULL; it then counts into
  /// n(responder, author).
  struct SpecState {
    // Statistics, from Bind to Unbind.
    // Unordered user pairs {a, b}, a <= b, as dense ids (packed
    // a << 32 | b), held while n(a, b) or n(b, a) is non-zero. The
    // ordered pair (u, v) is slot 2 * id + (u > v); n(u, v) and its
    // counted responses are indexed by that slot.
    PairIndex pairs;
    std::vector<int64_t> n;
    // rho: (x, y) -> ordered pairs (u, v) with x = n(u,v), y = n(v,u);
    // rho_S: x -> users with x self-responses. Current and target
    // counts; the zero key's are implicit.
    CountGapTable rho{2};
    CountGapTable self{1};
    // Response tuple caches (by slot): responder / post; -1 unknown.
    std::vector<TupleId> resp_user;
    std::vector<TupleId> resp_post;
    // Post caches: author by slot, and the responses (with a non-NULL
    // responder) per post, which pricing a re-authoring moves.
    std::vector<TupleId> post_author;
    SwapLists responses_by_post;
    // Posts created by the tweaking algorithm (Theorem 5 bound).
    int64_t created_posts = 0;
    // Total responses received per user (for pair selection: giving a
    // user with existing incoming responses more of them leaves the
    // linear reachability of the user level untouched).
    std::vector<int64_t> incoming;

    // Search index, while indexed_: counted responses per ordered-pair
    // slot and posts per user (ascending ids when built, then arrival
    // order), and per rho / rho_S id the pairs (packed u << 32 | v) /
    // users currently realizing it, ascending.
    SwapLists responses;
    SwapLists posts_by_user;
    std::vector<OrderedKeySet> buckets;
    std::vector<OrderedKeySet> self_buckets;
  };

  /// One counted-response change: user `u` responds to `v` delta more
  /// times (u == v for self-responses).
  struct NChange {
    int spec;
    TupleId u;
    TupleId v;
    int64_t delta;
  };
  /// Per-thread working memory of pricing and of OnApplied (defined in
  /// pairwise.cc). Validators may be priced from concurrent
  /// parallel-pass members, so pricing keeps no scratch in the tool.
  struct PricingScratch;
  static PricingScratch& ThreadScratch();

  /// Appends the counted-response changes `mod` (on schema table
  /// `table`) causes to `out`.
  void CollectNChanges(const Modification& mod, int table, bool pre_apply,
                       std::vector<NChange>* out) const;
  void ApplyNChange(const NChange& c);
  /// Simulated error change of applying the scratch's changes (shared
  /// across the single and batch validation paths). A finite
  /// `veto_cap` allows stopping as soon as the final penalty is
  /// provably above the cap, returning a conservative lower bound that
  /// is itself above it.
  double PenaltyOfChanges(PricingScratch* scratch,
                          double veto_cap = kNoPenaltyCap) const;
  /// Maintains the structural caches (authors, posts lists, response
  /// lists) for an applied modification.
  void ApplyStructural(const Modification& mod, int table,
                       TupleId new_tuple);
  /// Moves every counted response of post `pid` to the pair lists of
  /// its new author `a` (kInvalidTuple: none) and records `a`.
  void Reauthor(SpecState* st, TupleId pid, TupleId a);

  /// Author of post `p` of spec s: the cache, or the database for a
  /// post past it; kInvalidTuple when NULL or not a post.
  TupleId AuthorOf(int s, TupleId p) const;
  /// Slot of the ordered pair (u, v) in spec state `st`, or -1 if it
  /// was never interned.
  static int64_t FindPair(const SpecState& st, TupleId u, TupleId v);
  static int64_t InternPair(SpecState* st, TupleId u, TupleId v);
  /// n(u, v), zero for a pair never interned.
  static int64_t Count(const SpecState& st, TupleId u, TupleId v);
  static int64_t Incoming(const SpecState& st, TupleId u);

  /// Loads every spec's targets into its bound tables; every target
  /// setter calls it.
  void IndexTargets();
  /// Sets the current spaces of spec s's tables from the user table:
  /// |U| (|U| - 1) ordered pairs, |U| self counts.
  void SetSpaces(int s);
  /// max(1, target pairs + target self users): spec s's normalizer.
  double Denominator(int s) const;

  /// Ensures user `v` has at least one post, stealing or creating one
  /// (the Theorem 5 procedure). Returns the post id or kInvalidTuple.
  TupleId EnsurePost(TweakContext* ctx, int s, TupleId v);

  /// Adds (delta > 0) or removes (delta < 0) |delta| responses from
  /// `u` to `v`'s posts.
  bool AdjustResponses(TweakContext* ctx, int s, TupleId u, TupleId v,
                       int64_t delta);

  /// Converts one pair from vector `from` to `to` (Algorithm 3 unit);
  /// zero vectors select a fresh non-interacting pair.
  bool ConvertPair(TweakContext* ctx, int s, std::span<const int64_t> from,
                   std::span<const int64_t> to);
  /// Same for the self distribution (Theorem 11 unit).
  bool ConvertSelf(TweakContext* ctx, int s, int64_t from, int64_t to);

  Schema schema_;
  std::vector<ResponseSpec> specs_;
  // table index -> spec ids where it is the response / post table.
  std::vector<std::vector<int>> response_index_;
  std::vector<std::vector<int>> post_index_;

  Database* db_ = nullptr;
  std::vector<SpecState> state_;
  bool indexed_ = false;  // the search index in state_ exists

  std::vector<FrequencyDistribution> target_rho_;
  std::vector<FrequencyDistribution> target_rho_self_;
  std::vector<int64_t> target_users_;
  int max_attempts_ = 24;
};

}  // namespace aspect
