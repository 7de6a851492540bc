// In-memory span tracing for the pipeline benchmark.
//
// Spans are recorded only by the benchmark's own code, around its
// calls into the library's layers; the library itself is not
// instrumented. A span's
// parent is the innermost span open on the same thread; a span opened
// on a thread with none open (a parallel-pass worker) is parented to
// the innermost span open on the thread that created the Tracer.
//
// TracedTool is a delegating PropertyTool that opens a span around
// every call that does property work and forwards the calls that only
// describe the tool (scope, listeners, clone) unchanged, so the
// coordinator's routing and grouping decisions are the same with or
// without it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "aspect/property_tool.h"

namespace perfbench {

struct Span {
  int name = 0;         // index into Tracer::names()
  int64_t parent = -1;  // index into Tracer::spans(), -1 for a root
  double start = 0;     // seconds since the tracer's epoch
  double end = 0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Interns a layer name; the id is stable for the tracer's life.
  int NameId(const std::string& name);

  /// Opens a span on the calling thread and returns its index.
  int64_t Begin(int name);
  /// Closes span `id`, which must be the innermost open on this thread.
  void End(int64_t id);

  /// Adds `delta` to the named counter.
  void Count(int name, int64_t delta);

  /// Drops every span and counter (names stay interned).
  void Clear();

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  const std::map<int, int64_t>& counters() const { return counters_; }

 private:
  double Now() const;

  const std::thread::id owner_;
  const int64_t epoch_ns_;
  std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::map<int, int64_t> counters_;
  std::map<std::thread::id, std::vector<int64_t>> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Self time of every span: its duration minus the measure of the
/// union of its children's intervals, clipped to the span. Children
/// may nest and overlap (concurrent workers); each instant of the
/// parent is subtracted at most once.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Per layer name: summed duration, summed self time, and span count.
struct LayerTotals {
  double total = 0;
  double self = 0;
  int64_t calls = 0;
};
std::map<std::string, LayerTotals> Summarize(
    const std::vector<Span>& spans, const std::vector<std::string>& names);

/// Delegating tool that records spans named properties.<tool>.<call>:
/// target (SetTargetFromDataset), bind (Bind, RepairTarget), tweak,
/// price (ValidationPenalty, ValidationPenaltyBatch), error, and
/// lifecycle (Unbind and destruction; callers add construction),
/// plus the counter properties.<tool>.objections (prices > 0).
class TracedTool : public aspect::PropertyTool {
 public:
  TracedTool(std::unique_ptr<aspect::PropertyTool> inner, Tracer* tracer);
  ~TracedTool() override;

  std::string name() const override { return inner_->name(); }
  std::unique_ptr<aspect::PropertyTool> Clone() const override {
    return inner_->Clone();
  }
  aspect::Status SetTargetFromDataset(
      const aspect::Database& ground_truth) override;
  aspect::Status RepairTarget() override;
  aspect::Status CheckTargetFeasible() const override {
    return inner_->CheckTargetFeasible();
  }
  aspect::Status SaveTarget(std::ostream* out) const override {
    return inner_->SaveTarget(out);
  }
  aspect::Status LoadTarget(std::istream* in) override {
    return inner_->LoadTarget(in);
  }
  aspect::Status Bind(aspect::Database* db) override;
  void Unbind() override;
  bool bound() const override { return inner_->bound(); }
  aspect::Status Rebase(aspect::Database* db) override {
    return inner_->Rebase(db);
  }
  void AppendListeners(
      std::vector<aspect::ModificationListener*>* out) override {
    inner_->AppendListeners(out);
  }
  double Error() const override;
  double ValidationPenalty(const aspect::Modification& mod) const override;
  using aspect::PropertyTool::ValidationPenaltyBatch;
  double ValidationPenaltyBatch(std::span<const aspect::Modification> mods,
                                double veto_cap) const override;
  aspect::AccessScope DeclaredScope() const override {
    return inner_->DeclaredScope();
  }
  aspect::Status Tweak(aspect::TweakContext* ctx) override;

  // The inner tool registers itself as the listener when bound; these
  // are reached only if a caller notifies the wrapper directly.
  void OnApplied(const aspect::Modification& mod,
                 const std::vector<aspect::Value>& old_values,
                 aspect::TupleId new_tuple) override {
    inner_->OnApplied(mod, old_values, new_tuple);
  }
  void OnAppliedBatch(std::span<const aspect::Modification> mods,
                      std::span<const std::vector<aspect::Value>> old_values,
                      std::span<const aspect::TupleId> new_tuples) override {
    inner_->OnAppliedBatch(mods, old_values, new_tuples);
  }

 private:
  double Price(double penalty) const;

  std::unique_ptr<aspect::PropertyTool> inner_;
  Tracer* tracer_;
  int target_, bind_, tweak_, price_, error_, lifecycle_, objections_;
};

}  // namespace perfbench
