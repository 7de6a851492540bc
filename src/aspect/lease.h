// Write leases: the ownership protocol of the shared-database parallel
// pass (DESIGN.md Sec. 10). Before a parallel group runs, the
// coordinator partitions the members' certified write scopes into
// per-(table, column) leases on the main database. Tools then tweak
// the shared tables directly — no clone, no merge — and the lease set
// is the proof that no cell has two concurrent writers: group
// formation already guarantees the scopes are pairwise non-conflicting,
// so the partition is a disjointness certificate, not a lock table.
//
// Enforcement is layered. Debug and checker-on builds observe every
// semantic write at Apply time through the PR 3 access probes
// (LeaseProbeSink below) so an out-of-lease write is pinpointed at the
// violating modification, not at the group barrier. Release builds
// verify the recorder's written-atom set against the lease at the
// group barrier AND run the sink in sampled-canary mode: one in
// kSampleStride semantic writes pays the containment check, so a
// lying declaration is still caught cheaply without --check-scopes.
//
// Leases may be row-ranged: a cell atom declared with AddWriteRange
// carries its [lo, hi] tuple interval into the lease, two leases may
// then hold disjoint ranges of the SAME (table, column), and coverage
// of a write requires the row to sit inside the holder's interval.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "analysis/probe.h"
#include "aspect/access_scope.h"

namespace aspect {

/// One member's write ownership inside a shared-mode parallel group.
struct WriteLease {
  /// Tool id of the lease holder.
  int tool_id = -1;
  /// The certified write atoms the holder may touch: (table, column)
  /// cells, (table, kWholeTable), or (table, kRowStructure). A
  /// kRowStructure lease makes the holder the table's only structural
  /// mutator for the group (insert/delete slot allocation is sharded
  /// per table, so this is also the no-contention guarantee).
  std::set<AccessScope::Atom> writes;
  /// Row-interval restriction per cell atom, copied from the certified
  /// scope's declaration: an entry limits the holder's writes on that
  /// column to tuple ids [lo, hi]; an absent entry leaves the atom
  /// whole-column.
  std::map<AccessScope::Atom, std::pair<int64_t, int64_t>> row_ranges;

  /// True when a write of (table, column) at `row` is inside this
  /// lease: the atom must be covered, and a row-ranged atom must
  /// contain the row (a non-attributable kProbeAllRows write never
  /// satisfies a ranged atom).
  bool Covers(int table, int column, int64_t row) const;
};

/// Builds one lease per member from its certified write scope and
/// verifies the partition is truly pairwise disjoint (no atom of one
/// lease overlaps an atom of another, under the same overlap rules
/// that formed the group — two leases holding disjoint row ranges of
/// one column do NOT overlap). Returns false — and the caller runs the
/// members serially instead — if any two leases overlap; with
/// correctly formed groups this never happens, so the check is cheap
/// insurance against a planner bug corrupting the shared database.
bool PartitionWriteLeases(const std::vector<int>& tool_ids,
                          const std::vector<AccessScope>& scopes,
                          std::vector<WriteLease>* leases);

/// Probe sink wrapper a parallel task installs for its Tweak: reads
/// and writes forward to `inner` (the conformance FootprintRecorder,
/// or null when no checker is installed), and written atoms are
/// additionally checked against the task's lease. The first
/// out-of-lease write is latched for the group's discard diagnostic.
/// In sampled mode — the release-build canary — only one in
/// kSampleStride writes pays the containment check (the first write is
/// always checked), which is enough to latch a systematically lying
/// declaration at ~1.6% of the full-probe cost. Strictly thread-local,
/// like every probe sink.
class LeaseProbeSink : public analysis::AccessProbeSink {
 public:
  /// Every sampled-mode sink checks write 0, then every 64th.
  static constexpr int kSampleStride = 64;

  LeaseProbeSink(const WriteLease* lease, analysis::AccessProbeSink* inner,
                 bool sampled = false)
      : lease_(lease), inner_(inner), sampled_(sampled) {}

  void OnRead(int table, int column,
              int64_t row = analysis::kProbeAllRows) override {
    if (inner_ != nullptr) inner_->OnRead(table, column, row);
  }

  void OnWrite(int table, int column,
               int64_t row = analysis::kProbeAllRows) override {
    if (inner_ != nullptr) inner_->OnWrite(table, column, row);
    if (violated_) return;
    if (sampled_ && (count_++ % kSampleStride) != 0) return;
    if (!lease_->Covers(table, column, row)) {
      violated_ = true;
      violation_ = {table, column};
      violation_row_ = row;
    }
  }

  /// True once a write outside the lease was observed.
  bool violated() const { return violated_; }
  /// The first out-of-lease atom (meaningful when violated()).
  AccessScope::Atom violation() const { return violation_; }
  /// The offending tuple id (kProbeAllRows when not attributable).
  int64_t violation_row() const { return violation_row_; }

 private:
  const WriteLease* lease_;
  analysis::AccessProbeSink* inner_;
  const bool sampled_;
  uint64_t count_ = 0;
  bool violated_ = false;
  AccessScope::Atom violation_{-1, -1};
  int64_t violation_row_ = analysis::kProbeAllRows;
};

}  // namespace aspect
