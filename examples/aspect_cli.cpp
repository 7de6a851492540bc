// aspect_cli: the end-to-end command line for dataset scaling.
//
//   aspect_cli --schema schema.txt --data in_dir --out out_dir
//              --scale 2.5  [--scaler Dscaler|ReX|Rand]
//              [--tools coappear,linear,pairwise] [--iterations 2]
//              [--seed 7] [--truth truth_dir]
//              [--save-targets file] [--load-targets file] [--profile]
//              [--report] [--compare-orders] [--threads N]
//              [--gen-threads N] [--rollback off|undo]
//              [--parallel-pass on|off]
//              [--batch N|auto] [--check-scopes off|warn|strict|sampled]
//              [--route-votes off|on|audit]
//
// Besides the registry names, --tools accepts a direct column-tool
// spec, column-freq:TABLE.COLUMN, for a column the schema names.
// Tool names and the scaler are checked against the schema before any
// data is loaded.
//
// Reads one CSV per table from --data, scales every table by --scale
// (rounded, at least 1), enforces the chosen properties and writes the
// result to --out. Targets come from --truth when given, otherwise
// from the input dataset itself (repaired onto the feasible set for
// the scaled sizes).
//
// Demo mode: run without arguments to see the whole flow on a bundled
// synthetic dataset.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "analysis/scope_checker.h"
#include "aspect/coordinator.h"
#include "aspect/registry.h"
#include "properties/simple.h"
#include "aspect/targets_io.h"
#include "measure/profile.h"
#include "relational/modlog.h"
#include "common/string_util.h"
#include "relational/csv.h"
#include "relational/integrity.h"
#include "relational/schema_text.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

using namespace aspect;

namespace {

struct Args {
  std::string schema, data, out, truth;
  std::string save_targets, load_targets;
  bool profile = false;
  bool report = false;
  bool compare_orders = false;
  std::string scaler = "Dscaler";
  std::string tools = "coappear,linear,pairwise";
  bool rollback = false;
  double scale = 2.0;
  int iterations = 1;
  int threads = 0;
  // Stage-1 workers: size scaling + integrity checks (DESIGN.md §12).
  // 0 = one per hardware thread, 1 = inline; output is identical at
  // every setting.
  int gen_threads = 1;
  bool parallel_pass = false;
  int batch = 1;
  bool batch_auto = false;
  uint64_t seed = 1;
  analysis::ScopeCheckMode check_scopes = analysis::ScopeCheckMode::kOff;
  RouteVotes route_votes = RouteVotes::kOff;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    // Accept both "--flag value" and "--flag=value".
    std::string flag = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_inline = true;
    }
    auto next = [&]() -> Result<std::string> {
      if (has_inline) return inline_value;
      if (i + 1 >= argc) {
        return Status::Invalid(flag + " needs a value");
      }
      return std::string(argv[++i]);
    };
    if (flag == "--schema") {
      ASPECT_ASSIGN_OR_RETURN(args.schema, next());
    } else if (flag == "--data") {
      ASPECT_ASSIGN_OR_RETURN(args.data, next());
    } else if (flag == "--out") {
      ASPECT_ASSIGN_OR_RETURN(args.out, next());
    } else if (flag == "--truth") {
      ASPECT_ASSIGN_OR_RETURN(args.truth, next());
    } else if (flag == "--save-targets") {
      ASPECT_ASSIGN_OR_RETURN(args.save_targets, next());
    } else if (flag == "--load-targets") {
      ASPECT_ASSIGN_OR_RETURN(args.load_targets, next());
    } else if (flag == "--profile") {
      args.profile = true;
    } else if (flag == "--report") {
      args.report = true;
    } else if (flag == "--compare-orders") {
      args.compare_orders = true;
    } else if (flag == "--list-tools") {
      RegisterBuiltinTools();
      for (const std::string& name : ToolRegistry::Global().Names()) {
        std::printf("%s\n", name.c_str());
      }
      std::exit(0);
    } else if (flag == "--scaler") {
      ASPECT_ASSIGN_OR_RETURN(args.scaler, next());
    } else if (flag == "--tools") {
      ASPECT_ASSIGN_OR_RETURN(args.tools, next());
    } else if (flag == "--scale") {
      ASPECT_ASSIGN_OR_RETURN(const std::string v, next());
      args.scale = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--iterations") {
      ASPECT_ASSIGN_OR_RETURN(const std::string v, next());
      args.iterations = std::atoi(v.c_str());
      if (args.iterations < 1) {
        return Status::Invalid("--iterations must be >= 1");
      }
    } else if (flag == "--threads") {
      ASPECT_ASSIGN_OR_RETURN(const std::string v, next());
      args.threads = std::atoi(v.c_str());
      if (args.threads < 0) {
        return Status::Invalid(
            "--threads must be >= 0 (0 = hardware concurrency)");
      }
    } else if (flag == "--gen-threads") {
      ASPECT_ASSIGN_OR_RETURN(const std::string v, next());
      args.gen_threads = std::atoi(v.c_str());
      if (args.gen_threads < 0) {
        return Status::Invalid("--gen-threads must be >= 0");
      }
    } else if (flag == "--parallel-pass") {
      ASPECT_ASSIGN_OR_RETURN(const std::string v, next());
      if (v != "on" && v != "off") {
        return Status::Invalid("--parallel-pass must be on or off");
      }
      args.parallel_pass = v == "on";
    } else if (flag == "--batch") {
      ASPECT_ASSIGN_OR_RETURN(const std::string v, next());
      if (v == "auto") {
        args.batch_auto = true;
        args.batch = 1;
      } else {
        args.batch = std::atoi(v.c_str());
        if (args.batch < 1) {
          return Status::Invalid("--batch must be at least 1, or auto");
        }
      }
    } else if (flag == "--check-scopes") {
      ASPECT_ASSIGN_OR_RETURN(const std::string v, next());
      if (!analysis::ParseScopeCheckMode(v, &args.check_scopes)) {
        return Status::Invalid(
            "--check-scopes must be off, warn, strict or sampled");
      }
    } else if (flag == "--route-votes") {
      ASPECT_ASSIGN_OR_RETURN(const std::string v, next());
      if (v == "off") {
        args.route_votes = RouteVotes::kOff;
      } else if (v == "on") {
        args.route_votes = RouteVotes::kOn;
      } else if (v == "audit") {
        args.route_votes = RouteVotes::kAudit;
      } else {
        return Status::Invalid("--route-votes must be off, on or audit");
      }
    } else if (flag == "--rollback") {
      ASPECT_ASSIGN_OR_RETURN(const std::string v, next());
      if (v != "off" && v != "undo") {
        return Status::Invalid("--rollback must be off or undo");
      }
      args.rollback = v == "undo";
    } else if (flag == "--seed") {
      ASPECT_ASSIGN_OR_RETURN(const std::string v, next());
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      return Status::Invalid("unknown flag " + flag);
    }
  }
  return args;
}

/// Direct column-tool specs ("column-freq:T.C"): these carry a
/// table/column the registry's schema-only factories cannot, so they
/// are constructed here.
Result<std::unique_ptr<PropertyTool>> MakeColumnToolSpec(
    const std::string& spec, const Schema& schema) {
  const size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::string rest = spec.substr(colon + 1);
  const size_t dot = rest.find('.');
  if (dot == std::string::npos) {
    return Status::Invalid("tool spec needs TABLE.COLUMN: " + spec);
  }
  const std::string table = rest.substr(0, dot);
  const std::string column = rest.substr(dot + 1);
  const int t = schema.TableIndex(table);
  if (t < 0 ||
      schema.tables[static_cast<size_t>(t)].ColumnIndex(column) < 0) {
    return Status::Invalid("tool spec names an unknown column: " + spec);
  }
  if (kind == "column-freq") {
    return std::unique_ptr<PropertyTool>(
        std::make_unique<ColumnFreqTool>(schema, table, column));
  }
  return Status::Invalid("unknown tool spec " + spec);
}

Status Run(const Args& args) {
  // Demo mode: fabricate input under a temp dir.
  Args a = args;
  if (a.schema.empty()) {
    std::printf("no --schema given: running the bundled demo\n");
    const auto dir =
        std::filesystem::temp_directory_path() / "aspect_cli_demo";
    auto gen = GenerateDataset(DoubanMusicLike(0.4), 42);
    ASPECT_RETURN_NOT_OK(gen.status());
    ASPECT_ASSIGN_OR_RETURN(auto demo_db,
                            gen.ValueOrDie().Materialize(3));
    ASPECT_RETURN_NOT_OK(ExportCsv(*demo_db, (dir / "data").string()));
    std::ofstream schema_file(dir / "schema.txt");
    schema_file << FormatSchemaText(demo_db->schema());
    schema_file.close();
    a.schema = (dir / "schema.txt").string();
    a.data = (dir / "data").string();
    a.out = (dir / "out").string();
  }
  if (a.data.empty() || a.out.empty()) {
    return Status::Invalid("--data and --out are required");
  }

  ASPECT_ASSIGN_OR_RETURN(const Schema schema, LoadSchemaFile(a.schema));
  // Tools and scaler first: a bad name fails before the data is read.
  ASPECT_ASSIGN_OR_RETURN(std::unique_ptr<SizeScaler> scaler,
                          MakeScaler(a.scaler));
  RegisterBuiltinTools();
  Coordinator coordinator;
  std::vector<int> order;
  for (const std::string& tool : Split(a.tools, ',')) {
    if (tool.empty()) continue;
    if (tool.find(':') != std::string::npos) {
      ASPECT_ASSIGN_OR_RETURN(auto t, MakeColumnToolSpec(tool, schema));
      order.push_back(coordinator.AddTool(std::move(t)));
      continue;
    }
    ASPECT_ASSIGN_OR_RETURN(
        auto t, ToolRegistry::Global().Make(tool, schema));
    order.push_back(coordinator.AddTool(std::move(t)));
  }
  ASPECT_ASSIGN_OR_RETURN(std::unique_ptr<Database> source,
                          ImportCsv(schema, a.data));
  IntegrityOptions verify;
  verify.threads = a.gen_threads;
  ASPECT_RETURN_NOT_OK(CheckIntegrity(*source, verify));
  std::printf("loaded %lld tuples from %s\n",
              static_cast<long long>(source->TotalTuples()),
              a.data.c_str());
  if (a.profile) {
    ASPECT_ASSIGN_OR_RETURN(const DatasetProfile profile,
                            ProfileDataset(*source));
    std::printf("%s", profile.ToString().c_str());
    return Status::OK();
  }

  std::vector<int64_t> targets;
  for (int t = 0; t < source->num_tables(); ++t) {
    targets.push_back(std::max<int64_t>(
        1, static_cast<int64_t>(
               source->table(t).NumTuples() * a.scale + 0.5)));
  }
  const GenOptions gen{a.gen_threads};
  ASPECT_ASSIGN_OR_RETURN(std::unique_ptr<Database> scaled,
                          scaler->Scale(*source, targets, a.seed, gen));
  std::printf("scaled by %.2fx with %s: %lld tuples\n", a.scale,
              a.scaler.c_str(),
              static_cast<long long>(scaled->TotalTuples()));

  std::unique_ptr<Database> truth;
  if (!a.truth.empty()) {
    ASPECT_ASSIGN_OR_RETURN(truth, ImportCsv(schema, a.truth));
  }
  if (!a.load_targets.empty()) {
    ASPECT_RETURN_NOT_OK(LoadTargets(&coordinator, a.load_targets));
    std::printf("loaded targets from %s\n", a.load_targets.c_str());
  } else {
    ASPECT_RETURN_NOT_OK(
        coordinator.SetTargetsFromDataset(truth ? *truth : *source));
  }
  if (!a.save_targets.empty()) {
    ASPECT_RETURN_NOT_OK(SaveTargets(coordinator, a.save_targets));
    std::printf("saved targets to %s\n", a.save_targets.c_str());
  }

  CoordinatorOptions options;
  options.iterations = a.iterations;
  options.seed = a.seed;
  options.order_search_threads = a.threads;
  options.parallel_pass = a.parallel_pass;
  options.pass_threads = a.threads;
  options.batch_size = a.batch;
  options.batch_auto = a.batch_auto;
  options.rollback_on_regression = a.rollback;
  options.check_scopes = a.check_scopes;
  options.route_votes = a.route_votes;
  if (a.compare_orders && order.size() >= 2 && order.size() <= 4) {
    // Try every permutation on a scratch copy (the Property Tweaking
    // Order Problem, answered empirically) and keep the best.
    std::vector<std::vector<int>> candidates;
    std::vector<int> perm = order;
    std::sort(perm.begin(), perm.end());
    do {
      candidates.push_back(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
    ASPECT_ASSIGN_OR_RETURN(
        const auto outcomes,
        coordinator.CompareOrders(*scaled, candidates, options));
    std::printf("order comparison (best first):\n");
    for (const auto& outcome : outcomes) {
      std::string label;
      for (const int id : outcome.order) {
        if (!label.empty()) label += "-";
        label += coordinator.tool(id)->name();
      }
      std::printf("  %-40s total error %.6f\n", label.c_str(),
                  outcome.total_error);
    }
    order = outcomes.front().order;
  }
  std::unique_ptr<ModificationLog> log;
  if (a.report) log = std::make_unique<ModificationLog>(scaled.get());
  ASPECT_ASSIGN_OR_RETURN(const RunReport report,
                          coordinator.Run(scaled.get(), order, options));
  std::printf("%s\n", report.ToString().c_str());
  if (a.check_scopes != analysis::ScopeCheckMode::kOff) {
    if (report.scope_violations.empty()) {
      std::printf("scope check: all tools conformant\n");
    } else {
      std::printf("scope check: %zu violation(s)\n",
                  report.scope_violations.size());
      for (const analysis::ScopeViolation& v : report.scope_violations) {
        std::printf("  %s\n", v.ToString().c_str());
      }
    }
  }
  if (log != nullptr) {
    std::printf("tweaking footprint: %s", log->ToString().c_str());
  }
  ASPECT_RETURN_NOT_OK(CheckIntegrity(*scaled, verify));

  ASPECT_RETURN_NOT_OK(ExportCsv(*scaled, a.out));
  std::printf("wrote %s\n", a.out.c_str());
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 2;
  }
  const Status st = Run(args.ValueOrDie());
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
