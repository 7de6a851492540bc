// AccessScope: the (table, column) cell sets a tweaking tool reads and
// writes, used by the O1-parallel pass (Sec. IV, observation O1: tools
// whose access sets do not overlap provably cannot disturb each other,
// so their tweaks commute and their cross-votes are always zero).
//
// A scope is either *declared* by the tool up front
// (PropertyTool::DeclaredScope) or *observed* empirically by the
// AccessMonitor after the tool has run once (O2). An unknown scope
// conservatively conflicts with everything, which is what forces the
// coordinator's serial fallback on a first pass of undeclared tools.
// An observed scope is built from recorded writes only, so its read
// set is incomplete (reads_complete = false) and read-side checks
// treat it just as conservatively: undeclared tools stay serial.
//
// Atoms distinguish three granularities per table:
//   (t, c >= 0)         one column's cells
//   (t, kRowStructure)  the row skeleton: liveness bits, slot counts,
//                       and tuple inserts/deletes
//   (t, kWholeTable)    everything above at once
// The distinction is directional: a row insert/delete changes what any
// reader of the table sees (new/removed live cells), but a cell write
// never changes the row structure. WriteAtomDisturbsRead encodes this,
// which is what lets TupleCountTool declare row-structure-only writes
// without serializing every cell tool that follows it.
#pragma once

#include <set>
#include <utility>

#include "analysis/probe.h"

namespace aspect {

struct AccessScope {
  /// One accessed region: (table index, column index). The column
  /// holds a real index or one of the sentinels below.
  using Atom = std::pair<int, int>;
  /// All cells and the row structure of the table (an unpredictable
  /// column set); overlaps every atom on that table.
  static constexpr int kWholeTable = -1;
  /// Row-structure access only: tuple inserts/deletes, liveness and
  /// slot-count reads — no named column's cell values.
  static constexpr int kRowStructure = -2;

  static_assert(kWholeTable == analysis::kProbeWholeTable &&
                    kRowStructure == analysis::kProbeRowStructure,
                "probe sentinels must match AccessScope sentinels");

  /// False = the scope is not known (the conservative default): it
  /// must be treated as conflicting with everything.
  bool known = false;
  /// True when `reads` accounts for every cell the tool may read.
  /// Declared scopes are complete contracts; an observed scope is
  /// reconstructed from recorded *writes* only, so its read set is a
  /// lower bound and this is false — read-side checks (WritesDisturb
  /// with this scope as the reader) must then treat the scope as
  /// conservatively disturbed by everything. Writes stay trustworthy
  /// either way: the coordinator's runtime scope guard verifies them,
  /// and the ScopeChecker (src/analysis) verifies the read side.
  bool reads_complete = true;
  /// Everything the tool's Tweak may touch. `reads` is the full
  /// Tweak-time read footprint (what the parallel grouping must keep
  /// undisturbed while the tool runs); `writes` the full write
  /// footprint.
  std::set<Atom> reads;
  std::set<Atom> writes;
  /// The subset of `reads` that the tool's Error(),
  /// ValidationPenalty() and incrementally maintained statistics
  /// depend on. AddRead/AddWrite populate it alongside `reads`;
  /// AddTweakOnlyRead records a read the Tweak needs but the
  /// statistics do not (e.g. TupleCountTool reading whole template
  /// rows it clones). The enforced-validator eligibility check
  /// (ValidationDisturb) and the post-group rebind decision use this
  /// set: a write that cannot reach a validator's statistics cannot
  /// change its votes or its error.
  std::set<Atom> stats_reads;

  /// Adds a read atom (column defaults to the whole table).
  void AddRead(int table, int column = kWholeTable);
  /// Adds a write atom; a written cell is also a read (tools consult
  /// what they write), so the atom lands in both sets.
  void AddWrite(int table, int column = kWholeTable);
  /// Adds a read the Tweak performs but the tool's statistics and
  /// votes do not depend on (lands in `reads` only).
  void AddTweakOnlyRead(int table, int column = kWholeTable);
  /// Unions `other` into this scope; the result is known only if both
  /// inputs are.
  void MergeFrom(const AccessScope& other);
};

/// True when two atoms can address a common cell or structure: same
/// table, and at least one side is kWholeTable, or the columns
/// coincide, or either side is kRowStructure (the symmetric,
/// conservative approximation — use WriteAtomDisturbsRead when the
/// direction is known).
bool AtomsOverlap(AccessScope::Atom a, AccessScope::Atom b);

/// True when any atom of `a` overlaps any atom of `b`.
bool AtomSetsOverlap(const std::set<AccessScope::Atom>& a,
                     const std::set<AccessScope::Atom>& b);

/// Directed atom test: can a write to `w` change what a reader of `r`
/// observes? Row-structure writes (inserts/deletes) disturb every
/// reader of the table — new live rows carry cells in every column —
/// but a cell write never disturbs a pure row-structure reader.
bool WriteAtomDisturbsRead(AccessScope::Atom w, AccessScope::Atom r);

/// Directed set test over WriteAtomDisturbsRead.
bool WritesDisturbAtoms(const std::set<AccessScope::Atom>& writes,
                        const std::set<AccessScope::Atom>& reads);

/// True when observed atom `a` lies inside the declared set
/// `declared`: listed exactly, or covered by that table's kWholeTable
/// atom. A row-structure atom is also covered by kRowStructure; a cell
/// atom is NOT (row-structure declarations make no claim about cell
/// values). The runtime scope guard and the ScopeChecker both use
/// this covering relation.
bool AtomCoveredBy(AccessScope::Atom a,
                   const std::set<AccessScope::Atom>& declared);

/// Directed disturbance test: can `writer`'s writes change a cell that
/// `reader` reads? Unknown scopes disturb (and are disturbed by)
/// everything. When this is false, `reader`'s Tweak-time view of the
/// database is unchanged by `writer`'s tweaks (O1).
bool WritesDisturb(const AccessScope& writer, const AccessScope& reader);

/// Like WritesDisturb but against the reader's statistics footprint
/// (stats_reads) instead of its full Tweak read set. When false, every
/// one of `reader`'s validator votes on `writer`'s proposals is
/// provably zero and `reader`'s statistics and error are unchanged by
/// `writer`'s tweaks — the condition the parallel pass needs from
/// enforced validators that are not in the group.
bool ValidationDisturb(const AccessScope& writer, const AccessScope& reader);

/// Symmetric conflict for the independence graph fed to
/// IndependentClasses: either side's writes intersect the other's
/// reads (writes are reads too, so write-write overlap is included).
bool ScopesConflict(const AccessScope& a, const AccessScope& b);

}  // namespace aspect
