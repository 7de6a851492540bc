#include "aspect/lease.h"

#include <cstddef>

namespace aspect {
using std::size_t;

bool WriteLease::Covers(int table, int column) const {
  return AtomCoveredBy({table, column}, writes);
}

bool PartitionWriteLeases(const std::vector<int>& tool_ids,
                          const std::vector<AccessScope>& scopes,
                          std::vector<WriteLease>* leases) {
  leases->clear();
  leases->reserve(tool_ids.size());
  for (size_t i = 0; i < tool_ids.size(); ++i) {
    WriteLease lease;
    lease.tool_id = tool_ids[i];
    lease.writes = scopes[i].writes;
    leases->push_back(std::move(lease));
  }
  // Disjointness certificate. Every write atom is also in its writer's
  // read set (AccessScope::AddWrite), so two scopes with overlapping
  // writes always conflict under the directional rules that formed the
  // group — a well-formed group passes; a failure means the planner
  // handed us a group it should not have.
  for (size_t a = 0; a < leases->size(); ++a) {
    for (size_t b = a + 1; b < leases->size(); ++b) {
      if (AtomSetsOverlap((*leases)[a].writes, (*leases)[b].writes)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace aspect
