#include "analysis/access_scope.h"

namespace aspect {

void AccessScope::AddRead(int table, int column) {
  reads.insert({table, column});
  stats_reads.insert({table, column});
}

void AccessScope::AddWrite(int table, int column) {
  writes.insert({table, column});
  reads.insert({table, column});
  stats_reads.insert({table, column});
}

void AccessScope::AddTweakOnlyRead(int table, int column) {
  reads.insert({table, column});
}

void AccessScope::MergeFrom(const AccessScope& other) {
  known = known && other.known;
  reads_complete = reads_complete && other.reads_complete;
  reads.insert(other.reads.begin(), other.reads.end());
  writes.insert(other.writes.begin(), other.writes.end());
  stats_reads.insert(other.stats_reads.begin(), other.stats_reads.end());
}

bool AtomsOverlap(AccessScope::Atom a, AccessScope::Atom b) {
  if (a.first != b.first) return false;
  // Without direction, row structure and cells must be assumed to
  // interact (an insert materialises cells in every column).
  if (a.second == AccessScope::kRowStructure ||
      b.second == AccessScope::kRowStructure) {
    return true;
  }
  return a.second == AccessScope::kWholeTable ||
         b.second == AccessScope::kWholeTable || a.second == b.second;
}

bool AtomSetsOverlap(const std::set<AccessScope::Atom>& a,
                     const std::set<AccessScope::Atom>& b) {
  // Atom sets are tiny (a handful of (table, column) pairs per tool),
  // so the quadratic scan beats anything cleverer.
  for (const AccessScope::Atom& x : a) {
    for (const AccessScope::Atom& y : b) {
      if (AtomsOverlap(x, y)) return true;
    }
  }
  return false;
}

bool WriteAtomDisturbsRead(AccessScope::Atom w, AccessScope::Atom r) {
  if (w.first != r.first) return false;
  // Inserting/deleting rows changes the live cell set of every column.
  if (w.second == AccessScope::kRowStructure) return true;
  if (w.second == AccessScope::kWholeTable ||
      r.second == AccessScope::kWholeTable) {
    return true;
  }
  // A cell write leaves the row skeleton untouched.
  if (r.second == AccessScope::kRowStructure) return false;
  return w.second == r.second;
}

bool WritesDisturbAtoms(const std::set<AccessScope::Atom>& writes,
                        const std::set<AccessScope::Atom>& reads) {
  for (const AccessScope::Atom& w : writes) {
    for (const AccessScope::Atom& r : reads) {
      if (WriteAtomDisturbsRead(w, r)) return true;
    }
  }
  return false;
}

bool AtomCoveredBy(AccessScope::Atom a,
                   const std::set<AccessScope::Atom>& declared) {
  if (declared.count(a) > 0) return true;
  if (declared.count({a.first, AccessScope::kWholeTable}) > 0) return true;
  // kRowStructure covers only row-structure atoms; a cell atom needs a
  // matching column or the whole table.
  return false;
}

bool WritesDisturb(const AccessScope& writer, const AccessScope& reader) {
  if (!writer.known || !reader.known) return true;
  // A reader whose read set is a lower bound (observed scope) may read
  // cells it never wrote; without the full set, disturbance cannot be
  // ruled out.
  if (!reader.reads_complete) return true;
  return WritesDisturbAtoms(writer.writes, reader.reads);
}

bool ValidationDisturb(const AccessScope& writer, const AccessScope& reader) {
  if (!writer.known || !reader.known) return true;
  if (!reader.reads_complete) return true;
  return WritesDisturbAtoms(writer.writes, reader.stats_reads);
}

bool ScopesConflict(const AccessScope& a, const AccessScope& b) {
  return WritesDisturb(a, b) || WritesDisturb(b, a);
}

}  // namespace aspect
