#include "trace.h"

#include <algorithm>
#include <chrono>

namespace perfbench {
namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer() : owner_(std::this_thread::get_id()), epoch_ns_(SteadyNs()) {}

double Tracer::Now() const {
  return static_cast<double>(SteadyNs() - epoch_ns_) * 1e-9;
}

int Tracer::NameId(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<int>(it - names_.begin());
  names_.push_back(name);
  return static_cast<int>(names_.size()) - 1;
}

int64_t Tracer::Begin(int name) {
  const double start = Now();
  const std::thread::id tid = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t>& stack = open_[tid];
  int64_t parent = -1;
  if (!stack.empty()) {
    parent = stack.back();
  } else if (tid != owner_) {
    const std::vector<int64_t>& owner_stack = open_[owner_];
    if (!owner_stack.empty()) parent = owner_stack.back();
  }
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back(Span{name, parent, start, start});
  stack.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  const double end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = end;
  std::vector<int64_t>& stack = open_[std::this_thread::get_id()];
  if (!stack.empty() && stack.back() == id) stack.pop_back();
}

void Tracer::Count(int name, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  counters_.clear();
  open_.clear();
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t p = spans[i].parent;
    if (p >= 0) children[static_cast<size_t>(p)].push_back(i);
  }
  std::vector<double> self(spans.size());
  std::vector<std::pair<double, double>> cover;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (const size_t c : children[i]) {
      const double lo = std::max(spans[c].start, s.start);
      const double hi = std::min(spans[c].end, s.end);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    double run_lo = 0;
    double run_hi = -1;
    for (const auto& [lo, hi] : cover) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

std::map<std::string, LayerTotals> Summarize(
    const std::vector<Span>& spans, const std::vector<std::string>& names) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, LayerTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = out[names[static_cast<size_t>(spans[i].name)]];
    t.total += spans[i].end - spans[i].start;
    t.self += self[i];
    ++t.calls;
  }
  return out;
}

TracedTool::TracedTool(std::unique_ptr<aspect::PropertyTool> inner,
                       Tracer* tracer)
    : inner_(std::move(inner)), tracer_(tracer) {
  const std::string prefix = "properties." + inner_->name() + ".";
  target_ = tracer_->NameId(prefix + "target");
  bind_ = tracer_->NameId(prefix + "bind");
  tweak_ = tracer_->NameId(prefix + "tweak");
  price_ = tracer_->NameId(prefix + "price");
  error_ = tracer_->NameId(prefix + "error");
  lifecycle_ = tracer_->NameId(prefix + "lifecycle");
  objections_ = tracer_->NameId(prefix + "objections");
}

TracedTool::~TracedTool() {
  ScopedSpan span(tracer_, lifecycle_);
  inner_.reset();
}

void TracedTool::Unbind() {
  ScopedSpan span(tracer_, lifecycle_);
  inner_->Unbind();
}

aspect::Status TracedTool::SetTargetFromDataset(
    const aspect::Database& ground_truth) {
  ScopedSpan span(tracer_, target_);
  return inner_->SetTargetFromDataset(ground_truth);
}

aspect::Status TracedTool::RepairTarget() {
  ScopedSpan span(tracer_, bind_);
  return inner_->RepairTarget();
}

aspect::Status TracedTool::Bind(aspect::Database* db) {
  ScopedSpan span(tracer_, bind_);
  return inner_->Bind(db);
}

double TracedTool::Error() const {
  ScopedSpan span(tracer_, error_);
  return inner_->Error();
}

double TracedTool::Price(double penalty) const {
  if (penalty > 0) tracer_->Count(objections_, 1);
  return penalty;
}

double TracedTool::ValidationPenalty(const aspect::Modification& mod) const {
  double penalty = 0;
  {
    ScopedSpan span(tracer_, price_);
    penalty = inner_->ValidationPenalty(mod);
  }
  return Price(penalty);
}

double TracedTool::ValidationPenaltyBatch(
    std::span<const aspect::Modification> mods, double veto_cap) const {
  double penalty = 0;
  {
    ScopedSpan span(tracer_, price_);
    penalty = inner_->ValidationPenaltyBatch(mods, veto_cap);
  }
  return Price(penalty);
}

aspect::Status TracedTool::Tweak(aspect::TweakContext* ctx) {
  ScopedSpan span(tracer_, tweak_);
  return inner_->Tweak(ctx);
}

}  // namespace perfbench
