// ScopeChecker: the runtime half of the scope-conformance analyzer
// (DESIGN.md Sec. 9). Every fast path of the coordinator — parallel
// grouping, zero-vote validator pruning, rebind skipping — trusts each
// tool's self-declared AccessScope. The coordinator's write-side scope
// guard already verifies writes; this checker closes the read side:
// a FootprintRecorder (an AccessProbeSink) captures the full observed
// read+write footprint of each Tweak, and CheckStep diffs it against
// DeclaredScope(). Undeclared reads are the dangerous invisible class:
// they silently produce stale rebind decisions and wrong parallel
// groupings without ever corrupting a cell themselves.
#pragma once

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/access_scope.h"
#include "analysis/probe.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace aspect::analysis {

/// What to do with observed scope violations.
enum class ScopeCheckMode : int {
  kOff = 0,     ///< no full probes; release builds still run the
                ///< sampled lease canary on parallel tasks
  kWarn = 1,    ///< record + log violations, keep running
  kStrict = 2,  ///< record + log, and fail the run that saw any
  /// No footprint recording or conformance diffing — only the cheap
  /// sampled lease canary on parallel tasks (the release-build default
  /// behaviour, selectable explicitly so debug builds and CI can
  /// exercise exactly that path).
  kSampled = 3,
};

/// Parses "off" / "warn" / "strict" / "sampled" (--check-scopes=).
bool ParseScopeCheckMode(const std::string& text, ScopeCheckMode* mode);
const char* ScopeCheckModeToString(ScopeCheckMode mode);

/// One observed departure from a declared scope.
struct ScopeViolation {
  enum class Kind : int {
    /// The tool read an atom its declared read set does not cover.
    kUndeclaredRead = 0,
    /// The tool wrote an atom its declared write set does not cover.
    kUndeclaredWrite = 1,
    /// Two members of one parallel group had overlapping observed
    /// footprints (one's writes disturb the other's reads) — the
    /// grouping's independence proof was built on false declarations.
    kGroupOverlap = 2,
  };

  Kind kind = Kind::kUndeclaredRead;
  int tool = -1;
  std::string tool_name;
  /// kGroupOverlap only: the disturbed co-member.
  int other_tool = -1;
  std::string other_tool_name;
  int table = -1;
  /// Column index, or AccessScope::kWholeTable / kRowStructure.
  int column = -1;
  /// First pass (0-based iteration of Coordinator::Run) that observed
  /// this violation.
  int first_pass = 0;

  std::string ToString() const;
};

/// Per-tool conformance summary after a checked run.
enum class Conformance : int {
  /// The declaration cannot be certified: unknown, or its read set is
  /// a lower bound (reads_complete == false). Never conformant —
  /// observed (write-only) scopes land here by construction.
  kNotCertifiable = 0,
  kConformant = 1,
  kViolating = 2,
};

/// Dense per-thread footprint recorder. Probes fire per cell access on
/// hot scan loops, so the atom-level record stays O(1) and
/// allocation-free: one byte per (table, column-slot) with bit 0 =
/// read and bit 1 = write. Column slots fold the sentinels in:
/// kRowStructure -> 0, kWholeTable -> 1, column c -> c + 2.
class FootprintRecorder : public AccessProbeSink {
 public:
  /// `columns_per_table[t]` = number of columns of table t.
  explicit FootprintRecorder(const std::vector<int>& columns_per_table);

  void OnRead(int table, int column) override;
  void OnWrite(int table, int column) override;

  /// Resets all bits (shape is kept).
  void Clear();

  bool Empty() const;
  /// The recorded footprint as coarse scope atoms.
  std::set<AccessScope::Atom> ReadAtoms() const;
  std::set<AccessScope::Atom> WriteAtoms() const;

 private:
  static size_t Slot(int column) { return static_cast<size_t>(column + 2); }
  std::vector<std::vector<unsigned char>> bits_;
};

/// Accumulates violations across a run. The coordinator owns one per
/// checked Run; tests may drive it directly. Thread-safe: all mutable
/// state is guarded by mu_ (enforced by -Wthread-safety), so check
/// calls may come from task threads in a future shared-database pass;
/// today the coordinator only calls it from the coordinating thread.
class ScopeChecker {
 public:
  ScopeChecker(ScopeCheckMode mode, int num_tools);

  ScopeCheckMode mode() const { return mode_; }

  /// True when `declared` is a certifiable contract: known with a
  /// complete read set. An AccessMonitor-observed scope is never
  /// certifiable (reads_complete == false), so it can never be
  /// reported conformant — only a real declaration can.
  static bool CanCertify(const AccessScope& declared);

  /// Diffs one tool step's observed footprint against its declaration
  /// and records any undeclared atoms (deduplicated across passes; the
  /// diagnostic keeps the first offending pass). A non-certifiable
  /// declaration records no violations but pins the tool's conformance
  /// at kNotCertifiable.
  void CheckStep(int tool, const std::string& tool_name,
                 const AccessScope& declared, const FootprintRecorder& observed,
                 int pass) ASPECT_EXCLUDES(mu_);

  /// Debug cross-check after a parallel group: verifies the members'
  /// *observed* footprints were pairwise non-disturbing (directional,
  /// both ways). A failure means the group's independence held only on
  /// paper.
  void CheckGroupDisjoint(const std::vector<int>& tools,
                          const std::vector<std::string>& tool_names,
                          const std::vector<const FootprintRecorder*>& prints,
                          int pass) ASPECT_EXCLUDES(mu_);

  /// True once `tool` has any recorded violation: its declaration has
  /// been caught lying, and the coordinator must stop trusting it
  /// (falling back to the observed scope, i.e. the serial path).
  bool IsDistrusted(int tool) const ASPECT_EXCLUDES(mu_);

  Conformance ToolConformance(int tool) const ASPECT_EXCLUDES(mu_);

  std::vector<ScopeViolation> violations() const ASPECT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return violations_;
  }
  /// Monotone violation count, without copying the list. Distrust can
  /// only flip when this grows, which lets the coordinator's routing
  /// index re-scan distrust flags only on change (an O(1) epoch test
  /// per step instead of an O(fleet) scan).
  size_t NumViolations() const ASPECT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return violations_.size();
  }
  bool ok() const ASPECT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return violations_.empty();
  }

 private:
  void Add(ScopeViolation v) ASPECT_REQUIRES(mu_);

  const ScopeCheckMode mode_;
  mutable Mutex mu_;
  /// -1 unchecked, else Conformance.
  std::vector<signed char> state_ ASPECT_GUARDED_BY(mu_);
  /// Dedup key: (tool, kind, table, column).
  std::set<std::tuple<int, int, int, int>> seen_ ASPECT_GUARDED_BY(mu_);
  std::vector<ScopeViolation> violations_ ASPECT_GUARDED_BY(mu_);
};

}  // namespace aspect::analysis
