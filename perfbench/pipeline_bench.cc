// The repository benchmark: the paper's generate -> scale -> tweak ->
// measure pipeline (the same calls, order and seeds as RunExperiment in
// src/measure/runner.cc with run_queries on, so Q1-Q4 are evaluated
// before and after tweaking), composed here from the library's public calls
// so that each layer can be timed from outside.
//
//   pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--scale X] [--trace-out PATH]
//
// Set-up (GenerateDataset + materializing the source and target
// snapshots) runs kSetupRepeats times per input; then whole pipelines
// repeat until S seconds have passed. With --trace 0 it prints the
// end-to-end metrics (medians over the untraced repetitions of
// kInputs inputs); with --trace 1 it alternates untraced and traced
// repetitions of one input and prints the per-layer metrics of the
// traced ones. Times are scaled to a nominal machine speed (see
// KernelSeconds). Every repetition passes the correctness gate or
// counts as failed. The last line of stdout is one JSON object; see
// README.md in this directory for the metrics and workloads.
// --scale shrinks a workload's data, for the benchmark's own tests.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <unordered_map>
#include <memory>
#include <string>
#include <vector>

#include "aspect/coordinator.h"
#include "measure/runner.h"
#include "properties/coappear.h"
#include "properties/linear.h"
#include "properties/pairwise.h"
#include "query/queries.h"
#include "relational/fingerprint.h"
#include "relational/integrity.h"
#include "relational/modlog.h"
#include "scaler/size_scaler.h"
#include "trace.h"
#include "workload/generator.h"

namespace {

using namespace aspect;
using perfbench::ScopedSpan;
using perfbench::TracedTool;
using perfbench::Tracer;

constexpr uint64_t kDefaultSeed = 20190401;
// A run measures several inputs, so that its figures vary little from
// one --seed to the next; timings are per-input medians, summed.
constexpr size_t kInputs = 3;
constexpr int kSetupRepeats = 4;
constexpr int kReplayRepeats = 3;
// Registration order of the three tools, as in RunExperiment.
const char* const kTools[] = {"linear", "coappear", "pairwise"};

struct Workload {
  const char* name;
  DatasetBlueprint (*blueprint)(double);
  double scale;
  int source_snapshot;
  int target_snapshot;
  const char* scaler;
  const char* order;
  int iterations;
  bool batch_auto;
  RouteVotes route_votes;
  bool parallel_pass;
  int threads;  // gen_threads, and pass_threads when parallel_pass
};

// Why each workload exists is recorded in README.md.
const Workload kWorkloads[] = {
    {"xiami-clp", XiamiLike, 4.0, 1, 4, "Rand", "C-L-P", 1, false,
     RouteVotes::kOff, false, 1},
    {"xiami-clp-batched", XiamiLike, 4.0, 1, 4, "Rand", "C-L-P", 3, true,
     RouteVotes::kOn, true, 4},
    {"douban-dscaler", DoubanMovieLike, 4.0, 1, 6, "Dscaler", "L-P-C", 1,
     false, RouteVotes::kOff, false, 4},
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Machine-speed calibration. On a shared host the same code can run up
// to ~1.7x slower for minutes at a time, more than any regression bound.
// So every reported time is scaled to a nominal machine speed: a fixed
// kernel that does not touch the library (sorting and hashing
// pseudo-random integers) is timed before and after each set-up and
// repetition, and the section's wall time is multiplied by
// kNominalKernelS / (mean of those two kernel times). The raw times go
// to stderr, the kernel's median to the report.
constexpr double kNominalKernelS = 0.05;

double KernelSeconds() {
  const double t0 = Now();
  uint64_t x = 88172645463325252ull;
  std::vector<uint64_t> v(1 << 19);
  for (uint64_t& e : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = x;
  }
  std::sort(v.begin(), v.end());
  std::unordered_map<uint64_t, uint64_t> counts;
  for (size_t i = 0; i < v.size(); i += 4) counts[v[i] % 100003] += i;
  if (counts.empty() || v.front() > v.back()) std::abort();  // keeps the work
  return Now() - t0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Span names of the layers this program calls into directly.
struct Layers {
  explicit Layers(Tracer* t)
      : pipeline(t->NameId("pipeline")),
        scale(t->NameId("scaler.scale")),
        integrity(t->NameId("relational.integrity")),
        run(t->NameId("aspect.run")),
        query(t->NameId("query.eval")) {}
  int pipeline, scale, integrity, run, query;
};

/// Span helper: no tracer, no span.
struct Trace {
  Tracer* tracer = nullptr;
  const Layers* layers = nullptr;
  ScopedSpan Open(int Layers::*layer) const {
    return ScopedSpan(tracer, tracer ? layers->*layer : 0);
  }
};

std::unique_ptr<PropertyTool> NewTool(const std::string& name,
                                      const Schema& schema) {
  if (name == "linear") return std::make_unique<LinearPropertyTool>(schema);
  if (name == "coappear") {
    return std::make_unique<CoappearPropertyTool>(schema);
  }
  return std::make_unique<PairwisePropertyTool>(schema);
}

/// A tool as the pipeline uses it: plain, or traced with its
/// construction inside its lifecycle span.
std::unique_ptr<PropertyTool> MakeTool(const std::string& name,
                                       const Schema& schema,
                                       const Trace& trace) {
  if (trace.tracer == nullptr) return NewTool(name, schema);
  std::unique_ptr<PropertyTool> tool;
  {
    ScopedSpan span(trace.tracer, trace.tracer->NameId("properties." + name +
                                                      ".lifecycle"));
    tool = NewTool(name, schema);
  }
  return std::make_unique<TracedTool>(std::move(tool), trace.tracer);
}

Result<std::unique_ptr<SizeScaler>> MakeScaler(const std::string& name) {
  if (name == "Rand") return std::unique_ptr<SizeScaler>(new RandScaler());
  if (name == "Dscaler") {
    return std::unique_ptr<SizeScaler>(new DscalerScaler());
  }
  return Status::Invalid("unknown scaler " + name);
}

/// The generated inputs: ASPECT's empirical D and the ground truth.
struct Inputs {
  std::unique_ptr<Database> source;
  std::unique_ptr<Database> truth;
  std::vector<int64_t> sizes;  // SnapshotSizes(target)
  double generate_s = 0;
  double materialize_s = 0;
  uint64_t hash = 0;  // of source and truth, for the repeat check
};

/// Grows one input and materializes its two snapshots, timing both.
Result<Inputs> Setup(const Workload& w, double scale, uint64_t seed) {
  Inputs in;
  const GenOptions gen{w.threads};
  const double t0 = Now();
  ASPECT_ASSIGN_OR_RETURN(const SnapshotSet snapshots,
                          GenerateDataset(w.blueprint(scale), seed, gen));
  const double t1 = Now();
  ASPECT_ASSIGN_OR_RETURN(in.source,
                          snapshots.Materialize(w.source_snapshot, gen));
  ASPECT_ASSIGN_OR_RETURN(in.truth,
                          snapshots.Materialize(w.target_snapshot, gen));
  in.generate_s = t1 - t0;
  in.materialize_s = Now() - t1;
  in.sizes = snapshots.SnapshotSizes(w.target_snapshot);
  in.hash = ContentHash(*in.source) * 31 + ContentHash(*in.truth);
  return in;
}

/// A modification log that also remembers which entries arrived as one
/// batch, so a replay can reproduce the delivery shape.
class BatchLog : public ModificationLog {
 public:
  using ModificationLog::ModificationLog;

  void OnAppliedBatch(std::span<const Modification> mods,
                      std::span<const std::vector<Value>> old_values,
                      std::span<const TupleId> new_tuples) override {
    batches_.emplace_back(entries().size(), mods.size());
    ModificationLog::OnAppliedBatch(mods, old_values, new_tuples);
  }

  /// (first entry, count) of every batch delivery.
  const std::vector<std::pair<size_t, size_t>>& batches() const {
    return batches_;
  }
  /// Listener deliveries: single modifications plus whole batches.
  int64_t deliveries() const {
    int64_t batched = 0;
    for (const auto& b : batches_) batched += static_cast<int64_t>(b.second);
    return size() - batched + static_cast<int64_t>(batches_.size());
  }

 private:
  std::vector<std::pair<size_t, size_t>> batches_;
};

/// RunReport counters the traced run must reproduce exactly.
struct Counters {
  int64_t applied = 0, vetoed = 0, forced = 0;
  int64_t votes_total = 0, votes_skipped = 0, parallel_groups = 0;

  explicit Counters(const RunReport& r)
      : votes_total(r.votes_total),
        votes_skipped(r.votes_skipped),
        parallel_groups(r.parallel_groups) {
    for (const ToolReport& s : r.steps) {
      applied += s.applied;
      vetoed += s.vetoed;
      forced += s.forced;
    }
  }
  Counters() = default;
  bool operator==(const Counters&) const = default;
};

struct PipelineRun {
  double wall = 0;
  double tweak = 0;
  PropertyErrors before;
  PropertyErrors after;
  std::vector<double> query_errors_before;
  std::vector<double> query_errors;  // after tweaking
  Counters counters;
  uint64_t hash = 0;
  // The log listens to `output` and unregisters from it when it dies, so
  // it must always go first: it is declared first, so that a move
  // assignment replaces it before the database, and the destructor
  // releases it explicitly, since members die in reverse order.
  std::unique_ptr<BatchLog> log;
  std::unique_ptr<Database> output;

  PipelineRun() = default;
  PipelineRun(PipelineRun&&) = default;
  PipelineRun& operator=(PipelineRun&&) = default;
  ~PipelineRun() { log.reset(); }
};

/// runner.cc's Measure: fresh tools with targets from the ground truth,
/// repaired for the database's sizes, then each tool's Error().
Result<PropertyErrors> Measure(Database* db, const Database& truth,
                               const Trace& trace) {
  std::vector<std::unique_ptr<PropertyTool>> tools;
  for (const char* name : kTools) {
    tools.push_back(MakeTool(name, truth.schema(), trace));
  }
  for (const auto& t : tools) {
    ASPECT_RETURN_NOT_OK(t->SetTargetFromDataset(truth));
  }
  double errors[3] = {0, 0, 0};
  for (size_t i = 0; i < tools.size(); ++i) {
    ASPECT_RETURN_NOT_OK(tools[i]->Bind(db));
    ASPECT_RETURN_NOT_OK(tools[i]->RepairTarget());
    errors[i] = tools[i]->Error();
    tools[i]->Unbind();
  }
  return PropertyErrors{errors[0], errors[1], errors[2]};
}

/// runner.cc's MeasureQueries: the relative error of each of Q1-Q4.
Result<std::vector<double>> MeasureQueries(const Database& db,
                                           const Database& truth,
                                           const Trace& trace) {
  ScopedSpan span = trace.Open(&Layers::query);
  ASPECT_ASSIGN_OR_RETURN(const std::vector<NamedQuery> suite,
                          QuerySuiteFor(truth.schema()));
  std::vector<double> errors;
  for (const NamedQuery& q : suite) {
    ASPECT_ASSIGN_OR_RETURN(const double err, QueryError(q, truth, db));
    errors.push_back(err);
  }
  return errors;
}

Status CheckSizes(const Database& db, const std::vector<int64_t>& sizes,
                  const char* when) {
  for (int i = 0; i < db.num_tables(); ++i) {
    const int64_t n = db.table(i).NumTuples();
    if (n != sizes[static_cast<size_t>(i)]) {
      return Status::Internal(
          std::string("table ") + db.schema().tables[i].name + " has " +
          std::to_string(n) + " tuples " + when + ", target snapshot has " +
          std::to_string(sizes[static_cast<size_t>(i)]));
    }
  }
  return Status::OK();
}

CoordinatorOptions OptionsFor(const Workload& w, uint64_t seed) {
  CoordinatorOptions opts;
  opts.iterations = w.iterations;
  opts.validate = true;
  opts.seed = seed + 1;  // as RunExperiment
  opts.parallel_pass = w.parallel_pass;
  opts.pass_threads = w.threads;
  opts.batch_size = 1;
  opts.batch_auto = w.batch_auto;
  opts.route_votes = w.route_votes;
  return opts;
}

/// One whole pipeline on the generated inputs. Any failed check is
/// returned as an error status. With a tracer, every tool is wrapped
/// and the modifications are logged for the replay.
Result<PipelineRun> RunPipeline(const Workload& w, const Inputs& in,
                                uint64_t seed, const Trace& trace) {
  PipelineRun run;
  const GenOptions gen{w.threads};
  IntegrityOptions verify;
  verify.threads = w.threads;
  ASPECT_ASSIGN_OR_RETURN(std::unique_ptr<SizeScaler> scaler,
                          MakeScaler(w.scaler));
  ASPECT_ASSIGN_OR_RETURN(const std::vector<std::string> order_names,
                          OrderFromLabel(w.order));

  const double t0 = Now();
  {
    ScopedSpan pipeline = trace.Open(&Layers::pipeline);
    {
      ScopedSpan span = trace.Open(&Layers::scale);
      ASPECT_ASSIGN_OR_RETURN(
          run.output, scaler->Scale(*in.source, in.sizes, seed, gen));
    }
    Database* db = run.output.get();
    {
      ScopedSpan span = trace.Open(&Layers::integrity);
      ASPECT_RETURN_NOT_OK(CheckIntegrity(*db, verify));
    }
    ASPECT_RETURN_NOT_OK(CheckSizes(*db, in.sizes, "after scaling"));
    ASPECT_ASSIGN_OR_RETURN(run.before, Measure(db, *in.truth, trace));
    ASPECT_ASSIGN_OR_RETURN(run.query_errors_before,
                            MeasureQueries(*db, *in.truth, trace));

    Coordinator coordinator;
    for (const char* name : kTools) {
      coordinator.AddTool(MakeTool(name, in.truth->schema(), trace));
    }
    ASPECT_RETURN_NOT_OK(coordinator.SetTargetsFromDataset(*in.truth));
    std::vector<int> order;
    for (const std::string& name : order_names) {
      order.push_back(coordinator.FindTool(name));
    }
    if (trace.tracer != nullptr) run.log = std::make_unique<BatchLog>(db);
    const double r0 = Now();
    RunReport report;
    {
      ScopedSpan span = trace.Open(&Layers::run);
      ASPECT_ASSIGN_OR_RETURN(report,
                              coordinator.Run(db, order, OptionsFor(w, seed)));
    }
    run.tweak = Now() - r0;
    if (run.log != nullptr) run.log->Pause();
    run.counters = Counters(report);
    {
      ScopedSpan span = trace.Open(&Layers::integrity);
      ASPECT_RETURN_NOT_OK(CheckIntegrity(*db, verify));
    }
    ASPECT_ASSIGN_OR_RETURN(run.after, Measure(db, *in.truth, trace));
    ASPECT_ASSIGN_OR_RETURN(run.query_errors,
                            MeasureQueries(*db, *in.truth, trace));
  }
  run.wall = Now() - t0;
  ASPECT_RETURN_NOT_OK(CheckSizes(*run.output, in.sizes, "after tweaking"));
  run.hash = ContentHash(*run.output);
  // The output is only kept while the log listening to it needs it.
  if (run.log == nullptr) run.output.reset();
  return run;
}

ExperimentConfig ConfigFor(const Workload& w, double scale, uint64_t seed) {
  ExperimentConfig c;
  c.blueprint = w.blueprint(scale);
  c.seed = seed;
  c.source_snapshot = w.source_snapshot;
  c.target_snapshot = w.target_snapshot;
  c.scaler = w.scaler;
  c.order = OrderFromLabel(w.order).ValueOrAbort();
  c.iterations = w.iterations;
  c.run_queries = true;
  c.parallel_pass = w.parallel_pass;
  c.pass_threads = w.threads;
  c.batch_auto = w.batch_auto;
  c.gen_threads = w.threads;
  c.route_votes = w.route_votes;
  return c;
}

/// The composed pipeline must compute exactly what RunExperiment does.
Status MatchesRunExperiment(const Workload& w, double scale, uint64_t seed,
                            const PipelineRun& run) {
  ASPECT_ASSIGN_OR_RETURN(const ExperimentResult r,
                          RunExperiment(ConfigFor(w, scale, seed)));
  const auto same = [](const PropertyErrors& a, const PropertyErrors& b) {
    return a.linear == b.linear && a.coappear == b.coappear &&
           a.pairwise == b.pairwise;
  };
  const auto same_queries =
      [](const std::vector<std::pair<std::string, double>>& a,
         const std::vector<double>& b) {
        if (a.size() != b.size()) return false;
        for (size_t i = 0; i < b.size(); ++i) {
          if (a[i].second != b[i]) return false;
        }
        return true;
      };
  if (!same(r.before, run.before) || !same(r.after, run.after) ||
      !same_queries(r.query_errors_before, run.query_errors_before) ||
      !same_queries(r.query_errors_after, run.query_errors)) {
    return Status::Internal("composed pipeline errors differ from "
                            "RunExperiment's for the same config");
  }
  return Status::OK();
}

/// Replays a logged tweak onto copies of the pre-tweak database: once
/// with no tool bound (the cost of Database::Apply alone) and once with
/// each tool bound alone (adding its Statistics Updater). Deliveries
/// keep their shape: single modifications via Apply, batches via
/// ApplyBatch.
struct ReplayCost {
  double apply_s = 0;
  std::map<std::string, double> update_s;
};

Result<double> TimeReplay(const Database& base, const BatchLog& log,
                          PropertyTool* tool, uint64_t expect_hash) {
  std::vector<double> times;
  for (int k = 0; k < kReplayRepeats; ++k) {
    std::unique_ptr<Database> db = base.Clone();
    if (tool != nullptr) {
      ASPECT_RETURN_NOT_OK(tool->Bind(db.get()));
      ASPECT_RETURN_NOT_OK(tool->RepairTarget());
    }
    const auto& entries = log.entries();
    std::vector<Modification> batch;
    size_t next_batch = 0;
    const double t0 = Now();
    for (size_t i = 0; i < entries.size();) {
      if (next_batch < log.batches().size() &&
          log.batches()[next_batch].first == i) {
        const size_t n = log.batches()[next_batch++].second;
        batch.clear();
        for (size_t j = i; j < i + n; ++j) batch.push_back(entries[j].mod);
        ASPECT_RETURN_NOT_OK(db->ApplyBatch(batch));
        i += n;
      } else {
        ASPECT_RETURN_NOT_OK(db->Apply(entries[i].mod));
        ++i;
      }
    }
    times.push_back(Now() - t0);
    if (tool != nullptr) tool->Unbind();
    if (ContentHash(*db) != expect_hash) {
      return Status::Internal("replayed tweak does not reproduce the output");
    }
  }
  return Median(times);
}

Result<ReplayCost> Replay(const Workload& w, const Inputs& in, uint64_t seed,
                          const PipelineRun& run) {
  // The pre-tweak database is the scaler's output: the checks and
  // measurements between scaling and Coordinator::Run only read it.
  ASPECT_ASSIGN_OR_RETURN(std::unique_ptr<SizeScaler> scaler,
                          MakeScaler(w.scaler));
  ASPECT_ASSIGN_OR_RETURN(
      std::unique_ptr<Database> base,
      scaler->Scale(*in.source, in.sizes, seed, GenOptions{w.threads}));
  ReplayCost cost;
  ASPECT_ASSIGN_OR_RETURN(cost.apply_s,
                          TimeReplay(*base, *run.log, nullptr, run.hash));
  for (const char* name : kTools) {
    std::unique_ptr<PropertyTool> tool =
        NewTool(name, in.truth->schema());
    ASPECT_RETURN_NOT_OK(tool->SetTargetFromDataset(*in.truth));
    ASPECT_ASSIGN_OR_RETURN(const double with_tool,
                            TimeReplay(*base, *run.log, tool.get(), run.hash));
    cost.update_s[name] = with_tool - cost.apply_s;
  }
  return cost;
}

/// Unit of a per-layer metric, from its name.
std::string LayerUnit(const std::string& name) {
  const auto ends = [&](const char* s) {
    const size_t n = std::strlen(s);
    return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
  };
  if (ends("_s")) return "s";
  if (ends("_ratio") || ends("_error") || name == "trace_overhead") {
    return "ratio";
  }
  return "count";
}

/// Per-layer metrics of one traced repetition; times are scaled by
/// `speed` to the nominal machine speed.
std::map<std::string, double> LayerMetrics(const Tracer& tracer,
                                           const PipelineRun& run,
                                           double speed) {
  const std::map<std::string, perfbench::LayerTotals> layers =
      perfbench::Summarize(tracer.spans(), tracer.names());
  const auto layer = [&](const std::string& name) {
    const auto it = layers.find(name);
    return it == layers.end() ? perfbench::LayerTotals{} : it->second;
  };
  std::map<std::string, int64_t> counts;
  for (const auto& [id, n] : tracer.counters()) {
    counts[tracer.names()[static_cast<size_t>(id)]] = n;
  }
  std::map<std::string, double> m;
  m["scaler.scale_s"] = layer("scaler.scale").total;
  m["relational.integrity_s"] = layer("relational.integrity").total;
  for (const char* t : kTools) {
    const std::string p = std::string("properties.") + t + ".";
    m[p + "target_s"] = layer(p + "target").total;
    m[p + "target_calls"] = static_cast<double>(layer(p + "target").calls);
    m[p + "bind_s"] = layer(p + "bind").total;
    m[p + "bind_calls"] = static_cast<double>(layer(p + "bind").calls);
    m[p + "tweak_s"] = layer(p + "tweak").total;
    m[p + "tweak_self_s"] = layer(p + "tweak").self;
    m[p + "price_calls"] = static_cast<double>(layer(p + "price").calls);
    m[p + "price_s"] = layer(p + "price").total;
    m[p + "objections"] = static_cast<double>(counts[p + "objections"]);
    m[p + "error_s"] = layer(p + "error").total;
    m[p + "lifecycle_s"] = layer(p + "lifecycle").total;
  }
  m["properties.linear.final_error"] = run.after.linear;
  m["properties.coappear.final_error"] = run.after.coappear;
  m["properties.pairwise.final_error"] = run.after.pairwise;
  m["aspect.run_s"] = layer("aspect.run").total;
  m["aspect.self_s"] = layer("aspect.run").self;
  m["query.eval_s"] = layer("query.eval").total;
  double query_errors = 0;
  for (const double e : run.query_errors) query_errors += e;
  m["query.mean_error"] =
      query_errors / static_cast<double>(std::max<size_t>(
                         1, run.query_errors.size()));
  const perfbench::LayerTotals pipeline = layer("pipeline");
  m["pipeline.wall_s"] = pipeline.total;
  m["pipeline.self_s"] = pipeline.self;
  // Share of the traced wall that some layer's self time accounts for.
  m["trace.accounted_ratio"] = 1 - pipeline.self / pipeline.total;

  const Counters& c = run.counters;
  const double deliveries = static_cast<double>(run.log->deliveries());
  const double proposals = deliveries + static_cast<double>(c.vetoed);
  m["aspect.proposals"] = proposals;
  m["aspect.applied"] = static_cast<double>(c.applied);
  m["aspect.vetoed"] = static_cast<double>(c.vetoed);
  m["aspect.forced"] = static_cast<double>(c.forced);
  m["aspect.accept_ratio"] =
      proposals > 0 ? (deliveries - static_cast<double>(c.forced)) / proposals
                    : 0;
  m["aspect.votes_total"] = static_cast<double>(c.votes_total);
  m["aspect.votes_skipped"] = static_cast<double>(c.votes_skipped);
  m["aspect.vote_skip_ratio"] =
      c.votes_total > 0 ? static_cast<double>(c.votes_skipped) /
                              static_cast<double>(c.votes_total)
                        : 0;
  m["aspect.parallel_groups"] = static_cast<double>(c.parallel_groups);
  m["relational.mods"] = static_cast<double>(run.log->size());
  for (auto& [name, value] : m) {
    if (LayerUnit(name) == "s") value *= speed;
  }
  return m;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Print(const std::vector<Metric>& metrics, bool correct,
           int64_t attempted, int64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void WriteSpans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  out << "id\tparent\tname\tstart_s\tend_s\tself_s\n";
  const std::vector<double> self = perfbench::SelfTimes(tracer.spans());
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const perfbench::Span& s = tracer.spans()[i];
    out << i << '\t' << s.parent << '\t'
        << tracer.names()[static_cast<size_t>(s.name)] << '\t'
        << Number(s.start) << '\t' << Number(s.end) << '\t' << Number(self[i])
        << '\n';
  }
}

/// The seed of a run's input `k`: --seed itself, then values spread
/// far apart so that nearby --seed values share no input.
uint64_t InputSeed(uint64_t seed, size_t k) {
  return seed + static_cast<uint64_t>(k) * 0x9E3779B97F4A7C15ull;
}

/// One input of a run and the repetitions measured on it.
struct Part {
  uint64_t seed = 0;
  Inputs in;
  int64_t tuples = 0;
  PipelineRun reference;
  std::vector<double> walls;
  std::vector<double> tweaks;
};

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  double scale = 0;  // 0 = the workload's own
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (flag == "--scale") {
      a->scale = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || v.empty())) return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         a->scale >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scale X] [--trace-out PATH]\n",
                 argv[0]);
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads) {
    if (args.workload == k.name) w = &k;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const double scale = args.scale > 0 ? args.scale : w->scale;

  Tracer tracer;
  const Layers layers(&tracer);
  const Trace traced{&tracer, &layers};
  const Trace untraced;

  int64_t attempted = 0;
  int64_t failed = 0;
  const auto fail = [&](const std::string& what, const Status& st) {
    ++failed;
    std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(),
                 st.ToString().c_str());
  };
  // Kernel times bracketing every measured section; speed() takes the
  // next one and returns the factor to the nominal speed.
  std::vector<double> kernels = {KernelSeconds()};
  const auto speed = [&kernels] {
    kernels.push_back(KernelSeconds());
    return kNominalKernelS / ((kernels.end()[-2] + kernels.back()) / 2);
  };

  // The untraced run measures kInputs datasets; the traced run only the
  // first, so that traced and untraced repetitions share one input.
  std::vector<Part> parts(args.trace ? 1 : kInputs);
  std::vector<double> setup_s, generate_s, materialize_s;
  // Sets up input `p` kSetupRepeats times; every repetition must produce
  // the same bytes. Only one repetition's databases are alive at a time.
  const auto set_up = [&](size_t p) {
    Part& part = parts[p];
    part.seed = InputSeed(args.seed, p);
    uint64_t first_hash = 0;
    for (int k = 0; k < kSetupRepeats; ++k) {
      part.in = Inputs{};
      Result<Inputs> r = Setup(*w, scale, part.seed);
      if (!r.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n",
                     r.status().ToString().c_str());
        return false;
      }
      part.in = std::move(r).ValueOrDie();
      const double f = speed();
      part.in.generate_s *= f;
      part.in.materialize_s *= f;
      if (k == 0) first_hash = part.in.hash;
      if (part.in.hash != first_hash) {
        std::fprintf(stderr, "set-up is not deterministic for seed %llu\n",
                     static_cast<unsigned long long>(part.seed));
        return false;
      }
      setup_s.push_back(part.in.generate_s + part.in.materialize_s);
      generate_s.push_back(part.in.generate_s);
      materialize_s.push_back(part.in.materialize_s);
    }
    for (const int64_t s : part.in.sizes) part.tuples += s;
    return true;
  };

  // Repetitions cycle through the inputs (and, traced, alternate
  // untraced and traced). The first repetition of an input is the
  // reference every later one must reproduce exactly.
  std::vector<double> traced_walls;
  std::vector<std::map<std::string, double>> layer_runs;
  PipelineRun last_traced;
  const auto repeat = [&](int rep) {
    Part& part = parts[static_cast<size_t>(rep) % parts.size()];
    const bool trace_this = args.trace && rep % 2 == 1;
    if (trace_this) tracer.Clear();
    ++attempted;
    Result<PipelineRun> r =
        RunPipeline(*w, part.in, part.seed, trace_this ? traced : untraced);
    const double f = speed();
    const std::string what = "repetition " + std::to_string(rep) +
                             " (seed " + std::to_string(part.seed) + ")";
    if (!r.ok()) {
      fail(what, r.status());
    } else {
      PipelineRun run = std::move(r).ValueOrDie();
      std::fprintf(stderr, "%s%s: wall %.4f s, tweak %.4f s as measured; "
                   "speed factor %.3f\n", what.c_str(),
                   trace_this ? " traced" : "", run.wall, run.tweak, f);
      run.wall *= f;
      run.tweak *= f;
      if (part.walls.empty()) {
        part.reference = std::move(run);
        part.walls.push_back(part.reference.wall);
        part.tweaks.push_back(part.reference.tweak);
      } else if (run.hash != part.reference.hash) {
        fail(what, Status::Internal("output ContentHash differs between "
                                    "repetitions of one seed"));
      } else if (!(run.counters == part.reference.counters)) {
        fail(what, Status::Internal("RunReport counters differ from the "
                                    "untraced run's (the tool wrapper is "
                                    "not transparent)"));
      } else if (trace_this) {
        traced_walls.push_back(run.wall);
        layer_runs.push_back(LayerMetrics(tracer, run, f));
        last_traced = std::move(run);
      } else {
        part.walls.push_back(run.wall);
        part.tweaks.push_back(run.tweak);
      }
    }
  };

  // Peak memory is read after input 0's set-up and first repetition,
  // before the other inputs exist: one input's databases plus one
  // pipeline on them, the footprint of a single workload run.
  if (!set_up(0)) return 1;
  double start = Now();
  repeat(0);
  const double peak_rss_mb = PeakRssMb();
  const double setup_start = Now();
  for (size_t p = 1; p < parts.size(); ++p) {
    if (!set_up(p)) return 1;
  }
  start += Now() - setup_start;  // the set-ups are not repetition time
  for (int rep = 1;; ++rep) {
    repeat(rep);
    bool enough = !args.trace || !layer_runs.empty();
    for (const Part& q : parts) enough = enough && !q.walls.empty();
    if (Now() - start >= args.seconds &&
        (enough || rep >= 4 * static_cast<int>(parts.size()))) {
      break;
    }
  }
  for (const Part& part : parts) {
    if (part.walls.empty()) {
      std::fprintf(stderr, "no repetition of seed %llu completed\n",
                   static_cast<unsigned long long>(part.seed));
      return 1;
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    ++attempted;
    const Status st = MatchesRunExperiment(*w, scale, parts[0].seed,
                                           parts[0].reference);
    if (!st.ok()) fail("RunExperiment cross-check", st);
    // Per input: median timings over its repetitions; then totals and
    // means over the inputs.
    double wall = 0, tweak = 0, err = 0;
    int64_t tuples = 0;
    for (const Part& part : parts) {
      const PipelineRun& ref = part.reference;
      std::printf("%s seed %llu: %lld tuples, %zu repetitions, median wall at "
                  "nominal speed %.4f s; errors linear %.6f coappear %.6f "
                  "pairwise %.6f, "
                  "queries",
                  w->name, static_cast<unsigned long long>(part.seed),
                  static_cast<long long>(part.tuples), part.walls.size(),
                  Median(part.walls), ref.after.linear, ref.after.coappear,
                  ref.after.pairwise);
      for (const double e : ref.query_errors) std::printf(" %.6f", e);
      std::printf("\n");
      wall += Median(part.walls);
      tweak += Median(part.tweaks);
      tuples += part.tuples;
      err += ref.after.linear + ref.after.coappear + ref.after.pairwise;
    }
    const double n = static_cast<double>(parts.size());
    const double fail_ratio =
        static_cast<double>(failed) / static_cast<double>(attempted);
    std::printf("calibration kernel: median %.4f s over %zu samples, "
                "nominal %.4f s; times are scaled to the nominal speed\n",
                Median(kernels), kernels.size(), kNominalKernelS);
    std::printf("%-36s %18.6f ratio  (attempted %lld, failed %lld)\n",
                "fail_ratio", fail_ratio, static_cast<long long>(attempted),
                static_cast<long long>(failed));
    metrics = {
        {"tuples_per_s", static_cast<double>(tuples) / wall, "tuples/s"},
        {"tweak_s", tweak / n, "s"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"err_sum", err / n, "ratio"},
        {"pass_ratio", 1 - fail_ratio, "ratio"},
    };
  } else if (!layer_runs.empty()) {
    const Part& part = parts[0];
    ++attempted;
    Result<ReplayCost> replay = Replay(*w, part.in, part.seed, last_traced);
    if (!replay.ok()) fail("replay", replay.status());
    ReplayCost cost = replay.ok() ? replay.ValueOrDie() : ReplayCost{};
    std::map<std::string, double> m;
    for (const auto& [name, value] : layer_runs.front()) {
      std::vector<double> values;
      for (const auto& run : layer_runs) values.push_back(run.at(name));
      m[name] = Median(values);
    }
    m["workload.generate_s"] = Median(generate_s);
    m["workload.materialize_s"] = Median(materialize_s);
    const double run_speed = kNominalKernelS / Median(kernels);
    m["relational.apply_s"] = cost.apply_s * run_speed;
    for (const char* t : kTools) {
      m[std::string("properties.") + t + ".update_s"] =
          cost.update_s[t] * run_speed;
    }
    m["calibration.kernel_s"] = Median(kernels);
    m["trace_overhead"] = Median(traced_walls) / Median(part.walls) - 1;
    std::printf("%s seed %llu: %zu traced and %zu untraced repetitions "
                "(values are medians over the traced ones)\n",
                w->name, static_cast<unsigned long long>(part.seed),
                traced_walls.size(), part.walls.size());
    for (const auto& [name, value] : m) {
      metrics.push_back({name, value, LayerUnit(name)});
    }
    if (!args.trace_out.empty()) WriteSpans(tracer, args.trace_out);
  }
  if (metrics.empty()) {
    std::fprintf(stderr, "no repetition completed\n");
    return 1;
  }
  Print(metrics, failed == 0, attempted, failed);
  return 0;
}
