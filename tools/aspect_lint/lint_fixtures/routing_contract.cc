// Fixture: the vote-routing contract. A DeclaredScope that narrows to
// a row range (AddReadRange / AddWriteRange) licenses the router to
// prune the tool's votes outside that range, which is sound only when
// the penalty paths guard with InRange. A ranged declaration whose
// penalties never consult InRange is a routing hazard unless the tool
// vouches with an allow marker.
#include <cstdint>

struct AccessScope {
  void AddWrite(int t, int c);
  void AddWriteRange(int t, int c, int64_t lo, int64_t hi);
  void AddReadRange(int t, int c, int64_t lo, int64_t hi);
};
struct Modification {};

// Clean: ranged declaration, InRange guard in the penalty body.
class GuardedTool {
 public:
  AccessScope DeclaredScope() const;
  double ValidationPenalty(const Modification& mod) const;
  bool InRange(int64_t tid) const;
};

AccessScope GuardedTool::DeclaredScope() const {
  AccessScope s;
  s.AddWriteRange(0, 0, 0, 7);
  return s;
}

double GuardedTool::ValidationPenalty(const Modification& mod) const {
  (void)mod;
  return InRange(0) ? 1.0 : 0.0;
}

// Clean: the guard lives in a same-class pricing helper the penalty
// delegates to (a guarded DeltaOf pricing helper).
class HelperGuardedTool {
 public:
  AccessScope DeclaredScope() const;
  double ValidationPenalty(const Modification& mod) const;
  int64_t DeltaOf(const Modification& mod) const;
  bool InRange(int64_t tid) const;
};

AccessScope HelperGuardedTool::DeclaredScope() const {
  AccessScope s;
  s.AddWriteRange(0, 0, 0, 7);
  return s;
}

int64_t HelperGuardedTool::DeltaOf(const Modification& mod) const {
  (void)mod;
  return InRange(0) ? 1 : 0;
}

double HelperGuardedTool::ValidationPenalty(const Modification& mod) const {
  return static_cast<double>(DeltaOf(mod));
}

// Violation: range declared, no penalty body consults InRange.
class UnguardedTool {
 public:
  AccessScope DeclaredScope() const;
  double ValidationPenalty(const Modification& mod) const;
};

AccessScope UnguardedTool::DeclaredScope() const {  // aspect-lint-expect: routing-contract
  AccessScope s;
  s.AddReadRange(0, 0, 0, 7);
  return s;
}

double UnguardedTool::ValidationPenalty(const Modification& mod) const {
  (void)mod;
  return 1.0;
}

// Vouched: the contract is upheld some other way, and the marker on
// the DeclaredScope definition says so.
class VouchedTool {
 public:
  AccessScope DeclaredScope() const;
  double ValidationPenalty(const Modification& mod) const;
};

// Penalty is structurally zero off-range, no InRange call needed:
// aspect-lint: allow(routing-contract)
AccessScope VouchedTool::DeclaredScope() const {
  AccessScope s;
  s.AddWriteRange(0, 0, 8, 15);
  return s;
}

double VouchedTool::ValidationPenalty(const Modification& mod) const {
  (void)mod;
  return 0.0;
}

// Clean: the composite early-veto shape. The capped batch vote prices
// through a partial-sum helper that both applies the veto_cap bound
// and guards each member with InRange, so the batch override is
// guarded transitively (the fixed point walks batch -> helper ->
// InRange).
class CappedCompositeTool {
 public:
  AccessScope DeclaredScope() const;
  double ValidationPenalty(const Modification& mod) const;
  double ValidationPenaltyBatch(const Modification* mods, int n,
                                double veto_cap) const;
  double BoundedPartialSum(const Modification* mods, int n,
                           double veto_cap) const;
  bool InRange(int64_t tid) const;
};

AccessScope CappedCompositeTool::DeclaredScope() const {
  AccessScope s;
  s.AddReadRange(0, 0, 0, 7);
  return s;
}

double CappedCompositeTool::BoundedPartialSum(const Modification* mods,
                                              int n,
                                              double veto_cap) const {
  double total = 0;
  for (int i = 0; i < n; ++i) {
    (void)mods[i];
    total += InRange(i) ? 1.0 : 0.0;
    const double bound_left = static_cast<double>(n - 1 - i);
    if (total - bound_left > veto_cap) return total;  // provably above
  }
  return total;
}

double CappedCompositeTool::ValidationPenalty(const Modification& mod) const {
  (void)mod;
  return InRange(0) ? 1.0 : 0.0;
}

double CappedCompositeTool::ValidationPenaltyBatch(const Modification* mods,
                                                   int n,
                                                   double veto_cap) const {
  return BoundedPartialSum(mods, n, veto_cap);
}

// Violation: the single-vote path is guarded, but the capped batch
// override prices members with no InRange (directly or through a
// guarded helper) — routed voting prunes batch votes the tool may not
// return zero for.
class UnguardedBatchTool {
 public:
  AccessScope DeclaredScope() const;
  double ValidationPenalty(const Modification& mod) const;
  double ValidationPenaltyBatch(const Modification* mods, int n,
                                double veto_cap) const;
  bool InRange(int64_t tid) const;
};

AccessScope UnguardedBatchTool::DeclaredScope() const {  // aspect-lint-expect: routing-contract
  AccessScope s;
  s.AddWriteRange(0, 0, 0, 7);
  return s;
}

double UnguardedBatchTool::ValidationPenalty(const Modification& mod) const {
  (void)mod;
  return InRange(0) ? 1.0 : 0.0;
}

double UnguardedBatchTool::ValidationPenaltyBatch(const Modification* mods,
                                                  int n,
                                                  double veto_cap) const {
  (void)veto_cap;
  double total = 0;
  for (int i = 0; i < n; ++i) {
    (void)mods[i];
    total += 1.0;
  }
  return total;
}

// Unranged scope never triggers the check, guard or no guard: a
// whole-column reader is consulted on every write to its column.
class WholeColumnTool {
 public:
  AccessScope DeclaredScope() const;
  double ValidationPenalty(const Modification& mod) const;
};

AccessScope WholeColumnTool::DeclaredScope() const {
  AccessScope s;
  s.AddWrite(0, 0);
  return s;
}

double WholeColumnTool::ValidationPenalty(const Modification& mod) const {
  (void)mod;
  return 1.0;
}
