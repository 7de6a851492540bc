#include "measure/runner.h"

#include <chrono>

#include "common/string_util.h"
#include "properties/coappear.h"
#include "properties/linear.h"
#include "properties/pairwise.h"
#include "query/queries.h"
#include "relational/integrity.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

namespace aspect {
namespace {

/// Binds measurement tools (targets from truth, repaired for the
/// database's actual sizes) and reads the three property errors.
Result<PropertyErrors> Measure(Database* db, const Database& truth) {
  PropertyErrors errors;
  LinearPropertyTool linear(truth.schema());
  CoappearPropertyTool coappear(truth.schema());
  PairwisePropertyTool pairwise(truth.schema());
  ASPECT_RETURN_NOT_OK(linear.SetTargetFromDataset(truth));
  ASPECT_RETURN_NOT_OK(coappear.SetTargetFromDataset(truth));
  ASPECT_RETURN_NOT_OK(pairwise.SetTargetFromDataset(truth));
  ASPECT_RETURN_NOT_OK(linear.Bind(db));
  ASPECT_RETURN_NOT_OK(linear.RepairTarget());
  errors.linear = linear.Error();
  linear.Unbind();
  ASPECT_RETURN_NOT_OK(coappear.Bind(db));
  ASPECT_RETURN_NOT_OK(coappear.RepairTarget());
  errors.coappear = coappear.Error();
  coappear.Unbind();
  ASPECT_RETURN_NOT_OK(pairwise.Bind(db));
  ASPECT_RETURN_NOT_OK(pairwise.RepairTarget());
  errors.pairwise = pairwise.Error();
  pairwise.Unbind();
  return errors;
}

Result<std::vector<std::pair<std::string, double>>> MeasureQueries(
    const Schema& schema, const Database& truth, const Database& scaled) {
  ASPECT_ASSIGN_OR_RETURN(std::vector<NamedQuery> suite,
                          QuerySuiteFor(schema));
  std::vector<std::pair<std::string, double>> out;
  for (const NamedQuery& q : suite) {
    ASPECT_ASSIGN_OR_RETURN(const double err, QueryError(q, truth, scaled));
    out.emplace_back(q.name, err);
  }
  return out;
}

}  // namespace

std::vector<std::string> SixPermutations() {
  return {"L-C-P", "L-P-C", "C-L-P", "C-P-L", "P-L-C", "P-C-L"};
}

Result<std::vector<std::string>> OrderFromLabel(const std::string& label) {
  std::vector<std::string> order;
  for (const char c : label) {
    switch (c) {
      case 'L':
        order.push_back("linear");
        break;
      case 'C':
        order.push_back("coappear");
        break;
      case 'P':
        order.push_back("pairwise");
        break;
      case '-':
        break;
      default:
        return Status::Invalid(
            StrFormat("bad permutation label '%s'", label.c_str()));
    }
  }
  if (order.size() != 3) {
    return Status::Invalid(
        StrFormat("bad permutation label '%s'", label.c_str()));
  }
  return order;
}

Result<ExperimentResult> RunExperiment(const ExperimentConfig& config) {
  // Reject nonsense thread/batch knobs up front with a field-named
  // message instead of silently clamping (or crashing) deep inside a
  // phase; the CLI mirrors these checks at flag-parse time.
  if (config.gen_threads < 0) {
    return Status::Invalid(StrFormat(
        "ExperimentConfig::gen_threads must be >= 0 "
        "(0 = hardware concurrency), got %d",
        config.gen_threads));
  }
  if (config.pass_threads < 0) {
    return Status::Invalid(StrFormat(
        "ExperimentConfig::pass_threads must be >= 0 "
        "(0 = hardware concurrency), got %d",
        config.pass_threads));
  }
  if (config.batch_size < 1) {
    return Status::Invalid(
        StrFormat("ExperimentConfig::batch_size must be >= 1, got %d",
                  config.batch_size));
  }
  if (config.iterations < 1) {
    return Status::Invalid(
        StrFormat("ExperimentConfig::iterations must be >= 1, got %d",
                  config.iterations));
  }
  ExperimentResult result;
  const GenOptions gen{config.gen_threads};
  IntegrityOptions verify;
  verify.threads = config.gen_threads;

  const auto gen_start = std::chrono::steady_clock::now();
  ASPECT_ASSIGN_OR_RETURN(
      SnapshotSet snapshots,
      GenerateDataset(config.blueprint, config.seed, gen));
  ASPECT_ASSIGN_OR_RETURN(
      std::unique_ptr<Database> source,
      snapshots.Materialize(config.source_snapshot, gen));
  ASPECT_ASSIGN_OR_RETURN(
      std::unique_ptr<Database> truth,
      snapshots.Materialize(config.target_snapshot, gen));
  result.generate_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    gen_start)
          .count();

  ASPECT_ASSIGN_OR_RETURN(std::unique_ptr<SizeScaler> scaler,
                          MakeScaler(config.scaler));
  const auto scale_start = std::chrono::steady_clock::now();
  ASPECT_ASSIGN_OR_RETURN(
      std::unique_ptr<Database> scaled,
      scaler->Scale(*source,
                    snapshots.SnapshotSizes(config.target_snapshot),
                    config.seed, gen));
  result.scale_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    scale_start)
          .count();

  const auto verify_start = std::chrono::steady_clock::now();
  ASPECT_RETURN_NOT_OK(CheckIntegrity(*scaled, verify));
  result.verify_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    verify_start)
          .count();
  ASPECT_ASSIGN_OR_RETURN(result.before, Measure(scaled.get(), *truth));
  if (config.run_queries) {
    ASPECT_ASSIGN_OR_RETURN(
        result.query_errors_before,
        MeasureQueries(truth->schema(), *truth, *scaled));
  }
  if (!config.tweak) {
    result.after = result.before;
    result.query_errors_after = result.query_errors_before;
    return result;
  }

  Coordinator coordinator;
  coordinator.AddTool(
      std::make_unique<LinearPropertyTool>(truth->schema()));
  coordinator.AddTool(
      std::make_unique<CoappearPropertyTool>(truth->schema()));
  coordinator.AddTool(
      std::make_unique<PairwisePropertyTool>(truth->schema()));
  ASPECT_RETURN_NOT_OK(coordinator.SetTargetsFromDataset(*truth));
  std::vector<int> order;
  for (const std::string& name : config.order) {
    const int id = coordinator.FindTool(name);
    if (id < 0) {
      return Status::Invalid(StrFormat("unknown tool '%s'", name.c_str()));
    }
    order.push_back(id);
  }
  CoordinatorOptions opts;
  opts.iterations = config.iterations;
  opts.validate = config.validate;
  opts.seed = config.seed + 1;
  opts.parallel_pass = config.parallel_pass;
  opts.pass_threads = config.pass_threads;
  opts.batch_size = config.batch_size;
  opts.batch_auto = config.batch_auto;
  opts.route_votes = config.route_votes;
  ASPECT_ASSIGN_OR_RETURN(result.report,
                          coordinator.Run(scaled.get(), order, opts));
  for (const ToolReport& step : result.report.steps) {
    result.tweak_seconds += step.seconds;
  }
  const auto recheck_start = std::chrono::steady_clock::now();
  ASPECT_RETURN_NOT_OK(CheckIntegrity(*scaled, verify));
  result.verify_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    recheck_start)
          .count();
  ASPECT_ASSIGN_OR_RETURN(result.after, Measure(scaled.get(), *truth));
  if (config.run_queries) {
    ASPECT_ASSIGN_OR_RETURN(
        result.query_errors_after,
        MeasureQueries(truth->schema(), *truth, *scaled));
  }
  return result;
}

}  // namespace aspect
