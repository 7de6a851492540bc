// Batched modification pipeline vs the serial per-modification
// baseline: a 3-tool column-frequency enforcement pass on Rand-scaled
// Xiami-like social-network data, run with batch=1 on one thread (the
// historical path) and batched under the O1-parallel pass scheduler at
// 8 threads on the shared database with write leases.
//
// The setup itself is benched too: stage 1 (generate + materialize +
// Rand-scale + integrity check) runs once serial and once with 8
// shard workers, asserts the two outputs hash identically, and
// reports stage1_serial_s / stage1_parallel_s / stage1_speedup.
//
// The three tools write disjoint (table, column) access sets, so the
// parallel pass may run them concurrently (observation O1) and the
// batched path folds up to 256 same-value replacements into a single
// broadcast modification: one validator vote, one columnar write, one
// log segment. Every configuration must end at identical per-tool
// errors; the bench aborts if any differs. The phase columns break a
// group's coordinator-side overhead down: setup (lease partition +
// route assembly), merge (modlog splice) and rebase (rebinds of
// disturbed non-members).
#include <algorithm>
#include <chrono>

#include "aspect/coordinator.h"
#include "bench_util.h"
#include "properties/simple.h"
#include "relational/fingerprint.h"
#include "relational/integrity.h"
#include "relational/modlog.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

using namespace aspect;
using namespace aspect::bench;

namespace {

constexpr int kBatch = 256;
constexpr int kThreads = 8;

struct ToolRef {
  const char* table;
  const char* column;
};
constexpr ToolRef kTools[] = {
    {"User", "gender"}, {"Photo", "kind"}, {"Space", "kind"}};

struct RunOutcome {
  double seconds = 0;
  int64_t applied = 0;
  int64_t vetoed = 0;
  int64_t groups = 0;
  double setup_s = 0;
  double merge_s = 0;
  double rebase_s = 0;
  std::vector<double> errors;
};

RunOutcome RunOnce(const Database& base, const Database& truth,
                   bool parallel, int batch, int threads, bool verbose) {
  auto scaled = base.Clone();
  // Log the enforcement modifications like the CLI's --report and the
  // replay-onto-snapshot path do: the log is a per-modification
  // listener, so the serial baseline pays one entry per modification
  // while the batched pipeline delivers one segment per batch.
  ModificationLog log(scaled.get());
  Coordinator coordinator;
  std::vector<int> order;
  for (const ToolRef& t : kTools) {
    order.push_back(coordinator.AddTool(std::make_unique<ColumnFreqTool>(
        truth.schema(), t.table, t.column)));
  }
  coordinator.SetTargetsFromDataset(truth).Check();
  CoordinatorOptions opts;
  opts.seed = kSeed;
  opts.parallel_pass = parallel;
  opts.pass_threads = threads;
  opts.batch_size = batch;
  const auto t0 = std::chrono::steady_clock::now();
  const RunReport report =
      coordinator.Run(scaled.get(), order, opts).ValueOrAbort();
  RunOutcome out;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.groups = report.parallel_groups;
  out.setup_s = report.group_setup_seconds;
  out.merge_s = report.group_merge_seconds;
  out.rebase_s = report.group_rebase_seconds;
  out.errors = report.final_errors;
  for (const ToolReport& step : report.steps) {
    out.applied += step.applied;
    out.vetoed += step.vetoed;
    if (verbose) {
      std::printf("  step %-16s %.4fs applied=%lld%s\n",
                  step.tool.c_str(), step.seconds,
                  static_cast<long long>(step.applied),
                  step.parallel ? " (parallel)" : "");
    }
  }
  return out;
}

/// Best of `kReps` identical runs: the coordinator is deterministic for
/// a fixed seed, so repetitions only differ by scheduling noise and the
/// minimum is the honest cost on a busy machine.
RunOutcome Best(const Database& base, const Database& truth, bool parallel,
                int batch, int threads) {
  constexpr int kReps = 5;
  RunOutcome best;
  for (int r = 0; r < kReps; ++r) {
    RunOutcome o =
        RunOnce(base, truth, parallel, batch, threads, r == 0);
    if (r == 0 || o.seconds < best.seconds) best = std::move(o);
  }
  return best;
}

/// Vote-routing phase: one ColumnFreq tool per enforced column, so a
/// later step's proposals face the earlier steps' validators, none of
/// which reads the proposing tool's (table, column). Full voting pays
/// every validator on every proposal; routed voting consults only
/// scope-overlapping ones. The runs must agree on every final error —
/// routing is a pure skip of provably-zero votes — and audit mode
/// re-invokes sampled pruned votes to prove it.
bool ValidationPhase(const Database& base, const Database& truth,
                     BenchReport* report) {
  Banner("Vote routing: one tool per column, routed vs full");
  struct VoteOutcome {
    double seconds = 0;
    int64_t votes_total = 0;
    int64_t votes_skipped = 0;
    int64_t violations = 0;
    std::vector<double> errors;
  };
  const auto run_once = [&](RouteVotes route) {
    auto scaled = base.Clone();
    Coordinator coordinator;
    std::vector<int> order;
    for (const ToolRef& t : kTools) {
      order.push_back(coordinator.AddTool(std::make_unique<ColumnFreqTool>(
          truth.schema(), t.table, t.column)));
    }
    coordinator.SetTargetsFromDataset(truth).Check();
    CoordinatorOptions opts;
    opts.seed = kSeed;
    // Serial pass on purpose: this phase measures the cost of the vote
    // loops themselves, so the routed-vs-full comparison is honest on
    // any machine, including 1-core runners. Per-modification proposals
    // (batch=1) are the regime where that cost bites: one vote per
    // validator per modification, instead of one per 256-row batch.
    opts.batch_size = 1;
    opts.route_votes = route;
    const auto t0 = std::chrono::steady_clock::now();
    const RunReport rep =
        coordinator.Run(scaled.get(), order, opts).ValueOrAbort();
    VoteOutcome out;
    out.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    out.votes_total = rep.votes_total;
    out.votes_skipped = rep.votes_skipped;
    out.violations = rep.route_audit_violations;
    out.errors = rep.final_errors;
    return out;
  };
  // One run takes 0.1-0.3 s and best-of-3 ratios swung 1.3-2.2x on an
  // unchanged build, so full and routed voting alternate for kPairs
  // pairs (machine drift lands on both sides) and the speedup is the
  // ratio of the two medians; each side's quartiles show its spread.
  constexpr int kPairs = 7;
  std::vector<VoteOutcome> fulls, routeds;
  for (int r = 0; r < kPairs; ++r) {
    fulls.push_back(run_once(RouteVotes::kOff));
    routeds.push_back(run_once(RouteVotes::kOn));
  }
  const VoteOutcome audit = run_once(RouteVotes::kAudit);
  struct Spread {
    double q1, median, q3;
  };
  const auto spread = [](const std::vector<VoteOutcome>& runs) {
    std::vector<double> s;
    for (const VoteOutcome& o : runs) s.push_back(o.seconds);
    std::sort(s.begin(), s.end());
    // Linear interpolation between order statistics.
    const auto at = [&](double q) {
      const double pos = q * static_cast<double>(s.size() - 1);
      const size_t i = static_cast<size_t>(pos);
      const size_t j = std::min(i + 1, s.size() - 1);
      return s[i] + (pos - static_cast<double>(i)) * (s[j] - s[i]);
    };
    return Spread{at(0.25), at(0.5), at(0.75)};
  };
  const Spread full_s = spread(fulls);
  const Spread routed_s = spread(routeds);
  const VoteOutcome& full = fulls.front();
  const VoteOutcome& routed = routeds.front();
  Header({"config", "median_s", "q1_s", "q3_s", "votes_total",
          "votes_skipped"});
  const auto row = [](const char* label, const Spread& t,
                      const VoteOutcome& o) {
    Cell(label);
    Cell(t.median);
    Cell(t.q1);
    Cell(t.q3);
    Cell(std::to_string(o.votes_total));
    Cell(std::to_string(o.votes_skipped));
    EndRow();
  };
  row("full", full_s, full);
  row("routed", routed_s, routed);
  row("audit", Spread{audit.seconds, audit.seconds, audit.seconds}, audit);
  std::vector<const VoteOutcome*> checked = {&audit};
  for (size_t r = 0; r < routeds.size(); ++r) checked.push_back(&routeds[r]);
  for (size_t r = 1; r < fulls.size(); ++r) checked.push_back(&fulls[r]);
  for (const VoteOutcome* o : checked) {
    for (size_t i = 0; i < full.errors.size(); ++i) {
      if (full.errors[i] != o->errors[i]) {
        std::fprintf(stderr,
                     "FAIL: routed final error of tool %zu differs: "
                     "%.9f vs %.9f\n",
                     i, full.errors[i], o->errors[i]);
        return false;
      }
    }
    if (o->violations != 0) {
      std::fprintf(stderr,
                   "FAIL: vote-routing audit flagged %lld violations on "
                   "honest tools\n",
                   static_cast<long long>(o->violations));
      return false;
    }
  }
  if (routed.votes_skipped <= 0 || routed.votes_total <= 0) {
    std::fprintf(stderr, "FAIL: routed run pruned no votes\n");
    return false;
  }
  const double route_speedup =
      full_s.median / std::max(1e-9, routed_s.median);
  std::printf("identical final errors; %lld/%lld votes skipped; "
              "route speedup %.2fx, median of %d alternating pairs "
              "(audit %.2fx, one run)\n",
              static_cast<long long>(routed.votes_skipped),
              static_cast<long long>(routed.votes_total), route_speedup,
              kPairs, full_s.median / std::max(1e-9, audit.seconds));
  report->Metric("votes_total", static_cast<double>(routed.votes_total));
  report->Metric("votes_skipped", static_cast<double>(routed.votes_skipped));
  report->Metric("route_full_s", full_s.median);
  report->Metric("route_full_iqr_s", full_s.q3 - full_s.q1);
  report->Metric("route_routed_s", routed_s.median);
  report->Metric("route_routed_iqr_s", routed_s.q3 - routed_s.q1);
  report->Metric("route_audit_s", audit.seconds);
  report->Metric("route_speedup", route_speedup);
  return true;
}

}  // namespace

/// One full stage-1 pass — grow the blueprint dataset, materialize the
/// source and truth snapshots, Rand-scale to the truth sizes, and
/// verify referential integrity — at the given shard-worker count.
struct Stage1Result {
  std::unique_ptr<Database> truth;
  std::unique_ptr<Database> base;
  double seconds = 0;
};

Stage1Result RunStage1(int threads) {
  const GenOptions gen{threads};
  IntegrityOptions verify;
  verify.threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  auto snapshots = GenerateDataset(XiamiLike(48.0), kSeed, gen).ValueOrAbort();
  Stage1Result out;
  out.truth = snapshots.Materialize(4, gen).ValueOrAbort();
  RandScaler rand;
  out.base = rand.Scale(*snapshots.Materialize(1, gen).ValueOrAbort(),
                        snapshots.SnapshotSizes(4), kSeed, gen)
                 .ValueOrAbort();
  CheckIntegrity(*out.base, verify).Check();
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

int main() {
  BenchReport report("batch_pipeline");
  Banner("Stage 1: generate + Rand-scale (XiamiLike), serial vs sharded");
  // The sharded row generators are bitwise deterministic in the worker
  // count (DESIGN.md §12), so the 1-thread and N-thread passes must
  // hash identically — the bench aborts if they do not, and the
  // N-thread databases then seed every tweaking phase below.
  Stage1Result s1_serial = RunStage1(1);
  Stage1Result s1_par = RunStage1(kThreads);
  const uint64_t truth_hash = ContentHash(*s1_serial.truth);
  const uint64_t base_hash = ContentHash(*s1_serial.base);
  if (truth_hash != ContentHash(*s1_par.truth) ||
      base_hash != ContentHash(*s1_par.base)) {
    std::fprintf(stderr,
                 "FAIL: stage-1 output differs between 1 and %d "
                 "generation threads\n",
                 kThreads);
    return 1;
  }
  Header({"config", "seconds"});
  Cell("serial");
  Cell(s1_serial.seconds);
  EndRow();
  Cell("sharded-" + std::to_string(kThreads) + "t");
  Cell(s1_par.seconds);
  EndRow();
  const double stage1_speedup =
      s1_serial.seconds / std::max(1e-9, s1_par.seconds);
  std::printf("stage-1 hashes identical (%016llx); speedup %.2fx\n",
              static_cast<unsigned long long>(base_hash), stage1_speedup);
  report.Metric("stage1_serial_s", s1_serial.seconds);
  report.Metric("stage1_parallel_s", s1_par.seconds);
  report.Metric("stage1_speedup", stage1_speedup);
  report.Metric("gen_threads", kThreads);
  if (ThreadPool::HardwareThreads() == 1) {
    report.Note("stage1_note",
                "hardware_threads == 1: sharded timings oversubscribe one "
                "core; stage1_speedup is not meaningful");
  }

  auto truth = std::move(s1_par.truth);
  auto base = std::move(s1_par.base);
  // Rand clones tuples, so the scaled columns already match the target
  // frequencies; flatten each enforced column to a constant to make
  // the tools rebuild the whole distribution.
  for (const ToolRef& t : kTools) {
    Table* table = base->FindTable(t.table);
    const int col = table->ColumnIndex(t.column);
    std::vector<TupleId> rows;
    table->ForEachLive([&](TupleId tid) { rows.push_back(tid); });
    base->Apply(Modification::ReplaceValues(t.table, rows, {col},
                                            {Value(int64_t{0})}))
        .Check();
  }
  std::printf("scaled dataset: %lld tuples\n",
              static_cast<long long>(base->TotalTuples()));
  report.AddTuples(base->TotalTuples());

  Banner("Serial per-modification baseline (batch=1, serial pass)");
  const RunOutcome serial = Best(*base, *truth, false, 1, 1);
  Banner("Batched + O1-parallel, shared database (batch=" +
         std::to_string(kBatch) + ", " + std::to_string(kThreads) +
         " threads)");
  const RunOutcome shared = Best(*base, *truth, true, kBatch, kThreads);

  const RunOutcome batch_only = Best(*base, *truth, false, kBatch, 1);
  const RunOutcome par_only = Best(*base, *truth, true, 1, kThreads);
  const RunOutcome batched_1t = Best(*base, *truth, true, kBatch, 1);

  Banner("Batch pipeline: serial vs batched+parallel");
  Header({"config", "seconds", "applied", "vetoed", "setup_ms",
          "merge_ms", "rebase_ms", "err0", "err1", "err2"});
  const auto row = [](const char* label, const RunOutcome& o) {
    Cell(label);
    Cell(o.seconds);
    Cell(std::to_string(o.applied));
    Cell(std::to_string(o.vetoed));
    Cell(o.setup_s * 1e3);
    Cell(o.merge_s * 1e3);
    Cell(o.rebase_s * 1e3);
    for (const double e : o.errors) Cell(e);
    EndRow();
  };
  row("serial", serial);
  row("batch-only", batch_only);
  row("par-only", par_only);
  row("batched-shared", shared);
  row("batched-1t", batched_1t);

  const RunOutcome* const all[] = {&batch_only, &par_only, &shared,
                                   &batched_1t};
  for (const RunOutcome* o : all) {
    for (size_t i = 0; i < serial.errors.size(); ++i) {
      if (serial.errors[i] != o->errors[i]) {
        std::fprintf(
            stderr,
            "FAIL: final error of tool %zu differs: %.9f vs %.9f\n", i,
            serial.errors[i], o->errors[i]);
        return 1;
      }
    }
  }
  const double speedup = serial.seconds / std::max(1e-9, shared.seconds);
  std::printf("identical final errors across all configs; speedup %.2fx\n",
              speedup);
  report.Metric("serial_s", serial.seconds);
  report.Metric("batched_parallel_s", shared.seconds);
  report.Metric("shared_s", shared.seconds);
  report.Metric("speedup", speedup);
  report.Metric("batch", kBatch);
  report.Metric("threads", kThreads);
  report.Metric("groups", static_cast<double>(shared.groups));
  report.Metric("shared_setup_ms", shared.setup_s * 1e3);
  report.Metric("shared_merge_ms", shared.merge_s * 1e3);
  report.Metric("shared_rebase_ms", shared.rebase_s * 1e3);

  if (!ValidationPhase(*base, *truth, &report)) return 1;
  // Every parallel configuration above was checked against its serial
  // equivalent: stage-1 by content hash, the tweaking configs by final
  // per-tool errors. Reaching this point means
  // all of them matched.
  report.SerialEquivalent(true);
  return 0;
}
