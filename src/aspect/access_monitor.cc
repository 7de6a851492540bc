#include "aspect/access_monitor.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace aspect {

void AccessMonitor::Slots::Mark(TupleId t) {
  if (t < 0) return;
  const size_t w = static_cast<size_t>(t) >> 6;
  if (w >= words.size()) words.resize(w + 1);
  words[w] |= uint64_t{1} << (static_cast<uint64_t>(t) & 63);
}

bool AccessMonitor::Slots::Meets(const Slots& other) const {
  const size_t n = std::min(words.size(), other.words.size());
  for (size_t w = 0; w < n; ++w) {
    if ((words[w] & other.words[w]) != 0) return true;
  }
  return false;
}

AccessMonitor::AccessMonitor(int num_tools, const Schema& schema)
    : num_tools_(num_tools), schema_(schema) {
  ToolWrites shape;
  for (const TableSpec& table : schema.tables) {
    shape.emplace_back(table.columns.size() + 1);
  }
  writes_.assign(static_cast<size_t>(num_tools), shape);
}

void AccessMonitor::Record(int tool_id, const Modification& mod,
                           TupleId inserted) {
  const int table_index = schema_.TableIndex(mod.table);
  if (tool_id < 0 || tool_id >= num_tools() || table_index < 0) return;
  MutexLock lock(mu_);
  TableWrites& table = writes_[static_cast<size_t>(tool_id)]
                              [static_cast<size_t>(table_index)];
  Slots& rows = table[0];
  switch (mod.kind) {
    case OpKind::kDeleteValues:
    case OpKind::kInsertValues:
    case OpKind::kReplaceValues:
      for (const int c : mod.cols) {
        if (c < 0 || c + 1 >= static_cast<int>(table.size())) continue;
        Slots& slots = table[static_cast<size_t>(c) + 1];
        slots.written = true;
        for (const TupleId t : mod.tuples) slots.Mark(t);
      }
      break;
    case OpKind::kInsertTuple:
      // New tuples cannot overlap with cells other tools wrote before,
      // but later writes to them can.
      rows.written = true;
      rows.Mark(inserted);
      break;
    case OpKind::kDeleteTuple:
      rows.written = true;
      for (const TupleId t : mod.tuples) rows.Mark(t);
      break;
  }
}

void AccessMonitor::MergeFrom(AccessMonitor&& other) {
  MutexLock lock(mu_);
  MutexLock other_lock(other.mu_);
  for (size_t i = 0; i < writes_.size(); ++i) {
    for (size_t t = 0; t < writes_[i].size(); ++t) {
      for (size_t c = 0; c < writes_[i][t].size(); ++c) {
        // Keep the longer word vector and OR the shorter into it, so a
        // side with no records adopts the other's words wholesale.
        Slots& into = writes_[i][t][c];
        Slots& from = other.writes_[i][t][c];
        if (into.words.size() < from.words.size()) std::swap(into, from);
        into.written = into.written || from.written;
        for (size_t w = 0; w < from.words.size(); ++w) {
          into.words[w] |= from.words[w];
        }
        from = Slots();
      }
    }
  }
}

bool AccessMonitor::Overlaps(int a, int b) const {
  MutexLock lock(mu_);
  return OverlapsLocked(a, b);
}

// Two cell bits meet on the same column (index 0 included: two row
// bits); a row bit meets any bit of the other tool at that slot.
bool AccessMonitor::OverlapsLocked(int a, int b) const {
  const ToolWrites& wa = writes_[static_cast<size_t>(a)];
  const ToolWrites& wb = writes_[static_cast<size_t>(b)];
  for (size_t t = 0; t < wa.size(); ++t) {
    const TableWrites& x = wa[t];
    const TableWrites& y = wb[t];
    for (size_t c = 0; c < x.size(); ++c) {
      if (x[c].Meets(y[c]) || x[0].Meets(y[c]) || x[c].Meets(y[0])) {
        return true;
      }
    }
  }
  return false;
}

int64_t AccessMonitor::CellsTouched(int tool_id) const {
  MutexLock lock(mu_);
  const ToolWrites& tables = writes_[static_cast<size_t>(tool_id)];
  int64_t cells = 0;
  for (size_t t = 0; t < tables.size(); ++t) {
    const Slots& rows = tables[t][0];
    for (const uint64_t w : rows.words) {
      cells += std::popcount(w) * static_cast<int64_t>(tables[t].size() - 1);
    }
    for (size_t c = 1; c < tables[t].size(); ++c) {
      const std::vector<uint64_t>& words = tables[t][c].words;
      for (size_t w = 0; w < words.size(); ++w) {
        cells += std::popcount(words[w] & ~rows.Word(w));
      }
    }
  }
  return cells;
}

AccessScope AccessMonitor::ObservedScope(int tool_id) const {
  AccessScope scope;
  if (tool_id < 0 || tool_id >= num_tools()) return scope;
  MutexLock lock(mu_);
  const ToolWrites& tables = writes_[static_cast<size_t>(tool_id)];
  for (size_t t = 0; t < tables.size(); ++t) {
    for (size_t c = 0; c < tables[t].size(); ++c) {
      if (tables[t][c].written) {
        scope.AddWrite(static_cast<int>(t),
                       AccessScope::kWholeTable + static_cast<int>(c));
      }
    }
  }
  if (scope.writes.empty()) return scope;  // never ran: unknown
  scope.known = true;
  // The monitor records modifications, i.e. writes; the tool may well
  // read cells it never wrote, so the reconstructed read set is only a
  // lower bound and must not be trusted for read-side checks.
  scope.reads_complete = false;
  return scope;
}

std::vector<std::vector<bool>> AccessMonitor::OverlapGraph() const {
  const int n = num_tools();
  std::vector<std::vector<bool>> adj(
      static_cast<size_t>(n), std::vector<bool>(static_cast<size_t>(n)));
  MutexLock lock(mu_);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const bool o = OverlapsLocked(a, b);
      adj[static_cast<size_t>(a)][static_cast<size_t>(b)] = o;
      adj[static_cast<size_t>(b)][static_cast<size_t>(a)] = o;
    }
  }
  return adj;
}

}  // namespace aspect
