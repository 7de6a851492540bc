#include "analysis/scope_checker.h"

#include <sstream>

#include "common/logging.h"

namespace aspect::analysis {
namespace {

const char* KindToString(ScopeViolation::Kind kind) {
  switch (kind) {
    case ScopeViolation::Kind::kUndeclaredRead:
      return "undeclared read";
    case ScopeViolation::Kind::kUndeclaredWrite:
      return "undeclared write";
    case ScopeViolation::Kind::kGroupOverlap:
      return "parallel-group overlap";
  }
  return "?";
}

std::string ColumnToString(int column) {
  if (column == AccessScope::kWholeTable) return "whole-table";
  if (column == AccessScope::kRowStructure) return "row-structure";
  return "col " + std::to_string(column);
}

}  // namespace

bool ParseScopeCheckMode(const std::string& text, ScopeCheckMode* mode) {
  if (text == "off") {
    *mode = ScopeCheckMode::kOff;
  } else if (text == "warn") {
    *mode = ScopeCheckMode::kWarn;
  } else if (text == "strict") {
    *mode = ScopeCheckMode::kStrict;
  } else if (text == "sampled") {
    *mode = ScopeCheckMode::kSampled;
  } else {
    return false;
  }
  return true;
}

const char* ScopeCheckModeToString(ScopeCheckMode mode) {
  switch (mode) {
    case ScopeCheckMode::kOff:
      return "off";
    case ScopeCheckMode::kWarn:
      return "warn";
    case ScopeCheckMode::kStrict:
      return "strict";
    case ScopeCheckMode::kSampled:
      return "sampled";
  }
  return "?";
}

std::string ScopeViolation::ToString() const {
  std::ostringstream os;
  os << KindToString(kind) << ": tool " << tool_name;
  if (kind == Kind::kGroupOverlap) {
    os << " disturbs " << other_tool_name;
  }
  os << " at (table " << table << ", " << ColumnToString(column)
     << "), first seen in pass " << first_pass + 1;
  return os.str();
}

FootprintRecorder::FootprintRecorder(const std::vector<int>& columns_per_table)
    : bits_(columns_per_table.size()) {
  for (size_t t = 0; t < bits_.size(); ++t) {
    bits_[t].assign(Slot(columns_per_table[t]), 0);
  }
}

void FootprintRecorder::OnRead(int table, int column) {
  bits_[static_cast<size_t>(table)][Slot(column)] |= 1;
}

void FootprintRecorder::OnWrite(int table, int column) {
  bits_[static_cast<size_t>(table)][Slot(column)] |= 2;
}

void FootprintRecorder::Clear() {
  for (auto& row : bits_) row.assign(row.size(), 0);
}

bool FootprintRecorder::Empty() const {
  for (const auto& row : bits_) {
    for (const unsigned char b : row) {
      if (b != 0) return false;
    }
  }
  return true;
}

std::set<AccessScope::Atom> FootprintRecorder::ReadAtoms() const {
  std::set<AccessScope::Atom> out;
  for (size_t t = 0; t < bits_.size(); ++t) {
    for (size_t s = 0; s < bits_[t].size(); ++s) {
      if ((bits_[t][s] & 1) != 0) {
        out.insert({static_cast<int>(t), static_cast<int>(s) - 2});
      }
    }
  }
  return out;
}

std::set<AccessScope::Atom> FootprintRecorder::WriteAtoms() const {
  std::set<AccessScope::Atom> out;
  for (size_t t = 0; t < bits_.size(); ++t) {
    for (size_t s = 0; s < bits_[t].size(); ++s) {
      if ((bits_[t][s] & 2) != 0) {
        out.insert({static_cast<int>(t), static_cast<int>(s) - 2});
      }
    }
  }
  return out;
}

ScopeChecker::ScopeChecker(ScopeCheckMode mode, int num_tools)
    : mode_(mode), state_(static_cast<size_t>(num_tools), -1) {}

bool ScopeChecker::CanCertify(const AccessScope& declared) {
  return declared.known && declared.reads_complete;
}

void ScopeChecker::Add(ScopeViolation v) {
  if (!seen_.insert({v.tool, static_cast<int>(v.kind), v.table, v.column})
           .second) {
    return;
  }
  state_[static_cast<size_t>(v.tool)] =
      static_cast<signed char>(Conformance::kViolating);
  ASPECT_LOG(Warning) << "scope violation: " << v.ToString();
  violations_.push_back(std::move(v));
}

void ScopeChecker::CheckStep(int tool, const std::string& tool_name,
                             const AccessScope& declared,
                             const FootprintRecorder& observed, int pass) {
  MutexLock lock(mu_);
  signed char& st = state_[static_cast<size_t>(tool)];
  if (!CanCertify(declared)) {
    // An unknown or write-only-observed scope makes no checkable
    // claim; the tool simply can never be certified conformant.
    if (st != static_cast<signed char>(Conformance::kViolating)) {
      st = static_cast<signed char>(Conformance::kNotCertifiable);
    }
    return;
  }
  for (const AccessScope::Atom& a : observed.ReadAtoms()) {
    if (AtomCoveredBy(a, declared.reads)) continue;
    ScopeViolation v;
    v.kind = ScopeViolation::Kind::kUndeclaredRead;
    v.tool = tool;
    v.tool_name = tool_name;
    v.table = a.first;
    v.column = a.second;
    v.first_pass = pass;
    Add(std::move(v));
  }
  for (const AccessScope::Atom& a : observed.WriteAtoms()) {
    if (AtomCoveredBy(a, declared.writes)) continue;
    ScopeViolation v;
    v.kind = ScopeViolation::Kind::kUndeclaredWrite;
    v.tool = tool;
    v.tool_name = tool_name;
    v.table = a.first;
    v.column = a.second;
    v.first_pass = pass;
    Add(std::move(v));
  }
  if (st == -1) st = static_cast<signed char>(Conformance::kConformant);
}

void ScopeChecker::CheckGroupDisjoint(
    const std::vector<int>& tools, const std::vector<std::string>& tool_names,
    const std::vector<const FootprintRecorder*>& prints, int pass) {
  MutexLock lock(mu_);
  // Pairwise, directional: i's observed writes must not disturb j's
  // observed reads. Footprints are tiny (coarse atoms), so the
  // quadratic pass over group members is negligible next to the
  // tweaks themselves.
  std::vector<std::set<AccessScope::Atom>> reads(prints.size());
  std::vector<std::set<AccessScope::Atom>> writes(prints.size());
  for (size_t i = 0; i < prints.size(); ++i) {
    reads[i] = prints[i]->ReadAtoms();
    writes[i] = prints[i]->WriteAtoms();
  }
  for (size_t i = 0; i < prints.size(); ++i) {
    for (size_t j = 0; j < prints.size(); ++j) {
      if (i == j) continue;
      for (const AccessScope::Atom& w : writes[i]) {
        bool disturbed = false;
        for (const AccessScope::Atom& r : reads[j]) {
          if (WriteAtomDisturbsRead(w, r)) {
            disturbed = true;
            break;
          }
        }
        if (disturbed) {
          ScopeViolation v;
          v.kind = ScopeViolation::Kind::kGroupOverlap;
          v.tool = tools[i];
          v.tool_name = tool_names[i];
          v.other_tool = tools[j];
          v.other_tool_name = tool_names[j];
          v.table = w.first;
          v.column = w.second;
          v.first_pass = pass;
          Add(std::move(v));
        }
      }
    }
  }
}

bool ScopeChecker::IsDistrusted(int tool) const {
  MutexLock lock(mu_);
  return state_[static_cast<size_t>(tool)] ==
         static_cast<signed char>(Conformance::kViolating);
}

Conformance ScopeChecker::ToolConformance(int tool) const {
  MutexLock lock(mu_);
  const signed char st = state_[static_cast<size_t>(tool)];
  if (st < 0) return Conformance::kNotCertifiable;
  return static_cast<Conformance>(st);
}

}  // namespace aspect::analysis
