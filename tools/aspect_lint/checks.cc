#include "checks.h"

#include <algorithm>
#include <cstdio>

namespace aspect_lint {
namespace {

bool IsPunct(const Token& t, const char* s) {
  return t.kind == Token::Kind::kPunct && t.text == s;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// A marker on line L or L-1 suppresses a diagnostic at line L, so a
// directive comment may trail the statement or sit on its own line
// directly above it.
bool Suppressed(const SourceModel& model, int line, const std::string& check) {
  const auto& allows = model.file().directives.allows;
  for (const int l : {line, line - 1}) {
    auto it = allows.find(l);
    if (it != allows.end() && it->second.count(check)) return true;
  }
  return false;
}

void Emit(std::vector<Diagnostic>* diags, const SourceModel& model, int line,
          const std::string& check, std::string message) {
  if (Suppressed(model, line, check)) return;
  diags->push_back({model.file().path, line, check, std::move(message)});
}

std::string Format(const char* fmt, const std::string& a,
                   const std::string& b = std::string()) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, a.c_str(), b.c_str());
  return buf;
}

// ---------------------------------------------------------------------------
// Check family 1: determinism discipline.
//
// Deterministic contexts are (a) bodies of functions that take
// GenOptions — the generation entry points whose output must be
// bitwise thread-count-invariant — and (b) shard callbacks passed to
// sharding::RunShards / GenerateRowsSharded. Inside them:
//   determinism-banned-call   wall-clock / global-generator draws
//   determinism-hwconc-partition  thread-count queries (also flagged
//     anywhere a function mixes PartitionRows with a thread-count
//     query — partition grain must never depend on machine width)
//   determinism-unforked-rng  a parent Rng captured from the enclosing
//     scope used for anything but an immediate .Fork(...)
// ---------------------------------------------------------------------------

struct DetContext {
  size_t begin;  // token range (exclusive of the braces themselves)
  size_t end;
  std::string what;
};

const char* const kShardCallees[] = {"RunShards", "GenerateRowsSharded"};

bool IsBannedSource(const std::string& s) {
  return s == "random_device" || s == "system_clock";
}

bool IsBannedCall(const std::string& s) {
  return s == "rand" || s == "srand" || s == "time" || s == "clock";
}

bool IsThreadCountQuery(const std::string& s) {
  return s == "hardware_concurrency" || s == "HardwareThreads";
}

void ScanDeterministicRange(const SourceModel& model, const DetContext& ctx,
                            std::vector<Diagnostic>* diags) {
  const auto& toks = model.tokens();
  for (size_t i = ctx.begin; i <= ctx.end && i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) continue;
    if (IsBannedSource(t.text)) {
      Emit(diags, model, t.line, "determinism-banned-call",
           Format("'%s' in %s: draws from outside the forked Rng streams",
                  t.text, ctx.what));
      continue;
    }
    if (IsBannedCall(t.text) && i + 1 < toks.size() &&
        IsPunct(toks[i + 1], "(") &&
        !(i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->")))) {
      Emit(diags, model, t.line, "determinism-banned-call",
           Format("'%s()' in %s: wall-clock/global state breaks replay",
                  t.text, ctx.what));
      continue;
    }
    if (IsThreadCountQuery(t.text)) {
      Emit(diags, model, t.line, "determinism-hwconc-partition",
           Format("'%s' in %s: thread count may size pools, never shape "
                  "deterministic output",
                  t.text, ctx.what));
    }
  }
}

// Collects names declared with type Rng (params or locals) in
// [begin, end], skipping [skip_begin, skip_end].
std::set<std::string> RngNamesIn(const SourceModel& model, size_t begin,
                                 size_t end, size_t skip_begin,
                                 size_t skip_end) {
  std::set<std::string> names;
  const auto& toks = model.tokens();
  for (size_t i = begin; i <= end && i < toks.size(); ++i) {
    if (skip_begin != kNpos && i >= skip_begin && i <= skip_end) {
      i = skip_end;
      continue;
    }
    if (!toks[i].IsIdent("Rng")) continue;
    size_t j = i + 1;
    while (j <= end && (IsPunct(toks[j], "&") || IsPunct(toks[j], "*") ||
                        toks[j].IsIdent("const"))) {
      ++j;
    }
    if (j <= end && toks[j].kind == Token::Kind::kIdent) {
      names.insert(toks[j].text);
    }
  }
  return names;
}

void CheckDeterminism(const SourceModel& model,
                      std::vector<Diagnostic>* diags) {
  const auto& toks = model.tokens();
  const auto& fns = model.functions();

  std::vector<DetContext> contexts;
  for (const FunctionDef& fn : fns) {
    if (model.RangeHasIdent(fn.params_begin, fn.params_end, "GenOptions")) {
      contexts.push_back({fn.body_begin + 1, fn.body_end - 1,
                          Format("'%s' (takes GenOptions)", fn.name)});
    }
  }
  std::set<std::string> callees(std::begin(kShardCallees),
                                std::end(kShardCallees));
  const std::vector<LambdaArg> lambdas = model.LambdasPassedTo(callees);
  for (const LambdaArg& lam : lambdas) {
    contexts.push_back({lam.body_begin + 1, lam.body_end - 1,
                        Format("shard callback passed to %s", lam.callee)});
  }
  for (const DetContext& ctx : contexts) {
    ScanDeterministicRange(model, ctx, diags);
  }

  // Unforked parent Rng inside a shard callback.
  for (const LambdaArg& lam : lambdas) {
    if (lam.enclosing_fn == kNpos) continue;
    const FunctionDef& fn = fns[lam.enclosing_fn];
    std::set<std::string> outer = RngNamesIn(
        model, fn.params_begin, fn.body_end, lam.capture_begin, lam.body_end);
    if (outer.empty()) continue;
    std::set<std::string> shadowed;
    if (lam.params_begin != kNpos) {
      for (const std::string& s :
           RngNamesIn(model, lam.params_begin, lam.params_end, kNpos, kNpos)) {
        shadowed.insert(s);
      }
    }
    for (const std::string& s : RngNamesIn(model, lam.body_begin + 1,
                                           lam.body_end - 1, kNpos, kNpos)) {
      shadowed.insert(s);
    }
    for (size_t i = lam.body_begin + 1; i < lam.body_end; ++i) {
      const Token& t = toks[i];
      if (t.kind != Token::Kind::kIdent || outer.count(t.text) == 0 ||
          shadowed.count(t.text) != 0) {
        continue;
      }
      const bool forked =
          i + 2 < toks.size() &&
          (IsPunct(toks[i + 1], ".") || IsPunct(toks[i + 1], "->")) &&
          toks[i + 2].IsIdent("Fork");
      if (!forked) {
        Emit(diags, model, t.line, "determinism-unforked-rng",
             Format("parent Rng '%s' used inside a shard callback without "
                    "an immediate .Fork(label): shard draws must come from "
                    "a per-shard stream",
                    t.text));
      }
    }
  }

  // Partition grain shaped by machine width, anywhere.
  for (const FunctionDef& fn : fns) {
    if (!model.RangeHasIdent(fn.body_begin, fn.body_end, "PartitionRows")) {
      continue;
    }
    for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      if (toks[i].kind == Token::Kind::kIdent &&
          IsThreadCountQuery(toks[i].text)) {
        Emit(diags, model, toks[i].line, "determinism-hwconc-partition",
             Format("'%s' and PartitionRows in '%s': shard boundaries must "
                    "not depend on hardware concurrency",
                    toks[i].text, fn.name));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check family 2: probe coverage.
//
// Every public member of Column/Table whose body touches row/cell
// storage must report through the probe sinks (src/analysis/probe.h),
// or appear in the allowlist with a reason. Allowlist entries that no
// longer name a public member are flagged stale.
// ---------------------------------------------------------------------------

const char* const kStorageMembers[] = {"ints_",    "doubles_",  "strings_",
                                       "state_",   "live_",     "num_live_",
                                       "columns_", "cols_"};
const char* const kProbeSinks[] = {"ProbeRead", "ProbeWrite", "ProbeInstalled"};

struct MemberBody {
  size_t model;  // index into project
  std::string qualified;
  size_t begin;  // body token range
  size_t end;
  int line;      // definition line
};

bool RangeHasAny(const SourceModel& model, size_t begin, size_t end,
                 const char* const* names, size_t count) {
  for (size_t k = 0; k < count; ++k) {
    if (model.RangeHasIdent(begin, end, names[k])) return true;
  }
  return false;
}

void CheckProbes(const std::vector<SourceModel>& project,
                 const Allowlist* allowlist,
                 std::vector<Diagnostic>* diags) {
  std::set<std::string> public_members;  // "Column::Get"
  std::vector<MemberBody> bodies;

  // Pass 1: class bodies — collect public member names and inline
  // bodies.
  for (size_t m = 0; m < project.size(); ++m) {
    const SourceModel& model = project[m];
    const auto& toks = model.tokens();
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!toks[i].IsIdent("class") ||
          toks[i + 1].kind != Token::Kind::kIdent) {
        continue;
      }
      const std::string cls = toks[i + 1].text;
      if (cls != "Column" && cls != "Table") continue;
      // Skip to the class body brace; a ';' first means forward decl.
      size_t j = i + 2;
      while (j < toks.size() && !IsPunct(toks[j], "{") &&
             !IsPunct(toks[j], ";")) {
        ++j;
      }
      if (j >= toks.size() || !IsPunct(toks[j], "{")) continue;
      const size_t body_end = model.Match(j);
      if (body_end == kNpos) continue;
      bool is_public = false;  // class default
      for (size_t k = j + 1; k < body_end; ++k) {
        const Token& t = toks[k];
        if ((t.IsIdent("public") || t.IsIdent("private") ||
             t.IsIdent("protected")) &&
            k + 1 < body_end && IsPunct(toks[k + 1], ":")) {
          is_public = t.text == "public";
          ++k;
          continue;
        }
        if (IsPunct(t, "{")) {
          // Nested struct/enum body or a default brace-initializer —
          // either way not a member declaration site.
          const size_t match = model.Match(k);
          if (match == kNpos || match > body_end) break;
          k = match;
          continue;
        }
        if (!is_public || t.kind != Token::Kind::kIdent ||
            k + 1 >= body_end || !IsPunct(toks[k + 1], "(")) {
          continue;
        }
        // `name (` at class level: a member function declaration,
        // unless it is the constructor, a call inside a default
        // initializer (`= f()`), or a macro invocation.
        if (t.text == cls || IsPunct(toks[k - 1], "~") ||
            IsPunct(toks[k - 1], "=") || IsPunct(toks[k - 1], "(") ||
            IsPunct(toks[k - 1], ",")) {
          continue;
        }
        const size_t close = model.Match(k + 1);
        if (close == kNpos || close > body_end) continue;
        public_members.insert(cls + "::" + t.text);
        // Inline body?
        size_t e = close + 1;
        while (e < body_end &&
               (toks[e].IsIdent("const") || toks[e].IsIdent("noexcept") ||
                toks[e].IsIdent("override") || toks[e].IsIdent("final") ||
                IsPunct(toks[e], "&") || IsPunct(toks[e], "&&"))) {
          ++e;
        }
        if (e < body_end && IsPunct(toks[e], "{")) {
          const size_t inline_end = model.Match(e);
          if (inline_end != kNpos && inline_end <= body_end) {
            bodies.push_back(
                {m, cls + "::" + t.text, e, inline_end, t.line});
            k = inline_end;
            continue;
          }
        }
        k = close;
      }
      i = body_end;
    }
  }

  // Pass 2: out-of-line definitions Column::X / Table::X anywhere in
  // the project.
  for (size_t m = 0; m < project.size(); ++m) {
    for (const FunctionDef& fn : project[m].functions()) {
      if (public_members.count(fn.name)) {
        bodies.push_back({m, fn.name, fn.body_begin, fn.body_end, fn.line});
      }
    }
  }

  std::set<std::string> allowlisted;
  if (allowlist != nullptr) {
    for (const AllowlistEntry& e : allowlist->entries) {
      allowlisted.insert(e.name);
    }
  }

  for (const MemberBody& b : bodies) {
    const SourceModel& model = project[b.model];
    const bool touches =
        RangeHasAny(model, b.begin, b.end, kStorageMembers,
                    sizeof(kStorageMembers) / sizeof(kStorageMembers[0]));
    const bool probes =
        RangeHasAny(model, b.begin, b.end, kProbeSinks,
                    sizeof(kProbeSinks) / sizeof(kProbeSinks[0]));
    if (touches && !probes && allowlisted.count(b.qualified) == 0) {
      Emit(diags, model, b.line, "probe-missing",
           Format("public accessor '%s' touches row/cell storage without "
                  "an access probe (ProbeRead/ProbeWrite) and is not "
                  "allowlisted",
                  b.qualified));
    }
  }

  if (allowlist != nullptr) {
    for (const AllowlistEntry& e : allowlist->entries) {
      if (public_members.count(e.name) == 0) {
        diags->push_back(
            {allowlist->path, e.line, "probe-allowlist-stale",
             Format("allowlist entry '%s' matches no public Column/Table "
                    "member — remove it",
                    e.name)});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check family 3: lease/write discipline.
//
// Semantic mutations of Table/Column must flow through
// Database::Apply/ApplyBatch (or the undo internals) so write
// leases, the modification log, and undo stay coherent. Direct
// mutator calls elsewhere need an explicit
// `// aspect-lint: framework-write` marker.
// ---------------------------------------------------------------------------

const char* const kMutators[] = {
    "Set",     "SetBroadcast", "SetInt",     "SetDouble", "Erase",
    "Append",  "AppendRows",   "AppendBatch", "PopBack",  "Delete",
    "Undelete"};

bool IsMutator(const std::string& s) {
  for (const char* m : kMutators) {
    if (s == m) return true;
  }
  return false;
}

// Functions allowed to mutate directly: the lease-holding Database
// internals and the undo machinery.
bool IsFrameworkWriter(const std::string& fn) {
  static const std::set<std::string>* const kAllowed =
      new std::set<std::string>{"Database::Apply", "Database::ApplyBatch",
                                "Database::ApplyOne", "Database::ApplyCellOp",
                                "Database::Undo"};
  if (kAllowed->count(fn)) return true;
  return EndsWith(fn, "UndoOnto");
}

// The storage classes' own translation units implement the mutators;
// the discipline applies to their callers.
bool IsStorageFile(const std::string& path) {
  return path.find("relational/column.") != std::string::npos ||
         path.find("relational/table.") != std::string::npos;
}

void CheckLeases(const SourceModel& model, std::vector<Diagnostic>* diags) {
  if (IsStorageFile(model.file().path)) return;
  const auto& toks = model.tokens();
  for (size_t i = 1; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent || !IsMutator(t.text) ||
        !IsPunct(toks[i + 1], "(")) {
      continue;
    }
    // Member-call form only: `expr.M(...)` / `expr->M(...)`. Static
    // factories like Modification::DeleteTuple(...) are descriptions
    // of writes, not writes.
    if (!IsPunct(toks[i - 1], ".") && !IsPunct(toks[i - 1], "->")) continue;
    const size_t fi = model.EnclosingFunction(i);
    if (fi != kNpos && IsFrameworkWriter(model.functions()[fi].name)) {
      continue;
    }
    Emit(diags, model, t.line, "lease-unmanaged-write",
         Format("direct '%s' mutation outside Database::Apply/ApplyBatch "
                "and the undo/rebase internals — route through the write "
                "lease, or mark `// aspect-lint: framework-write` with a "
                "justification",
                t.text));
  }
}

}  // namespace

Allowlist ParseAllowlist(const std::string& path, const std::string& content) {
  Allowlist out;
  out.path = path;
  int line = 0;
  size_t pos = 0;
  while (pos <= content.size()) {
    const size_t eol = content.find('\n', pos);
    std::string raw = content.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    ++line;
    pos = eol == std::string::npos ? content.size() + 1 : eol + 1;
    const size_t hash = raw.find('#');
    if (hash != std::string::npos) {
      static const std::string kExpectKey = "aspect-lint-expect:";
      const size_t ek = raw.find(kExpectKey, hash);
      if (ek != std::string::npos) {
        std::string name = raw.substr(ek + kExpectKey.size());
        const size_t b = name.find_first_not_of(" \t");
        const size_t e = name.find_last_not_of(" \t\r");
        if (b != std::string::npos) {
          out.expects.emplace_back(line, name.substr(b, e - b + 1));
        }
      }
      raw = raw.substr(0, hash);
    }
    const size_t b = raw.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const size_t e = raw.find_last_not_of(" \t\r");
    out.entries.push_back({raw.substr(b, e - b + 1), line});
  }
  return out;
}

const std::set<std::string>& KnownChecks() {
  static const std::set<std::string>* const kChecks = new std::set<std::string>{
      "determinism-banned-call", "determinism-unforked-rng",
      "determinism-hwconc-partition", "probe-missing",
      "probe-allowlist-stale", "lease-unmanaged-write"};
  return *kChecks;
}

std::vector<Diagnostic> RunChecks(const std::vector<SourceModel>& project,
                                  const Allowlist* allowlist) {
  std::vector<Diagnostic> diags;
  for (const SourceModel& model : project) {
    CheckDeterminism(model, &diags);
    CheckLeases(model, &diags);
  }
  CheckProbes(project, allowlist, &diags);
  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.check != b.check) return a.check < b.check;
              return a.message < b.message;
            });
  diags.erase(std::unique(diags.begin(), diags.end(),
                          [](const Diagnostic& a, const Diagnostic& b) {
                            return a.file == b.file && a.line == b.line &&
                                   a.check == b.check &&
                                   a.message == b.message;
                          }),
              diags.end());
  return diags;
}

}  // namespace aspect_lint
