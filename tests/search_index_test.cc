// The split between a tool's statistics and its search index: Bind
// builds the statistics, which Error and pricing read, and only Tweak
// builds (and releases) the index its search walks. These tests pin the
// contract on the paper's workloads: an unindexed tool prices and
// measures exactly as an indexed one, and binding a tool at its first
// step (which also repairs its target there) sees the table sizes the
// run started with.
#include <gtest/gtest.h>

#include <functional>

#include "aspect/coordinator.h"
#include "forwarding_tool.h"
#include "properties/coappear.h"
#include "properties/linear.h"
#include "properties/pairwise.h"
#include "relational/fingerprint.h"
#include "relational/modlog.h"
#include "scaler/size_scaler.h"
#include "workload/generator.h"

namespace aspect {
namespace {

struct Workload {
  const char* name;
  std::function<DatasetBlueprint(double)> blueprint;
  bool dscaler;
  // Tool order by registration id: 0 linear, 1 coappear, 2 pairwise.
  std::vector<int> order;
  int iterations;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> w = {
      {"XiamiLike", &XiamiLike, false, {1, 0, 2}, 1},
      {"DoubanMovieLike", &DoubanMovieLike, true, {0, 2, 1}, 2},
  };
  return w;
}

struct Data {
  std::unique_ptr<Database> truth;
  std::unique_ptr<Database> scaled;
};

// generate -> scale, as the paper pipeline composes it: snapshot 1 is
// the empirical input and snapshot 3 the ground truth.
Data MakeData(const Workload& w, uint64_t seed) {
  const SnapshotSet gen =
      GenerateDataset(w.blueprint(0.3), seed).ValueOrAbort();
  Data d;
  d.truth = gen.Materialize(3).ValueOrAbort();
  const auto source = gen.Materialize(1).ValueOrAbort();
  RandScaler rand;
  DscalerScaler dscaler;
  const SizeScaler& scaler =
      w.dscaler ? static_cast<const SizeScaler&>(dscaler) : rand;
  d.scaled = scaler.Scale(*source, gen.SnapshotSizes(3), seed).ValueOrAbort();
  return d;
}

std::vector<std::unique_ptr<PropertyTool>> PaperTools(const Schema& schema) {
  std::vector<std::unique_ptr<PropertyTool>> tools;
  tools.push_back(std::make_unique<LinearPropertyTool>(schema));
  tools.push_back(std::make_unique<CoappearPropertyTool>(schema));
  tools.push_back(std::make_unique<PairwisePropertyTool>(schema));
  return tools;
}

void BuildSearchIndex(PropertyTool* t) {
  if (auto* l = dynamic_cast<LinearPropertyTool*>(t)) l->BuildSearchIndex();
  if (auto* c = dynamic_cast<CoappearPropertyTool*>(t)) c->BuildSearchIndex();
  if (auto* p = dynamic_cast<PairwisePropertyTool*>(t)) p->BuildSearchIndex();
}

// True if two bound paper tools of one kind hold equal layout-free
// state (coappear and pairwise snapshots include the search index, empty
// while it does not exist) and equal linear matrices.
bool SameState(const PropertyTool& a, const PropertyTool& b) {
  if (const auto* l = dynamic_cast<const LinearPropertyTool*>(&a)) {
    const auto& m = dynamic_cast<const LinearPropertyTool&>(b);
    for (size_t c = 0; c < l->chains().size(); ++c) {
      if (!(l->CurrentMatrix(static_cast<int>(c)) ==
            m.CurrentMatrix(static_cast<int>(c)))) {
        return false;
      }
    }
  }
  if (const auto* c = dynamic_cast<const CoappearPropertyTool*>(&a)) {
    const auto& d = dynamic_cast<const CoappearPropertyTool&>(b);
    for (size_t g = 0; g < c->groups().size(); ++g) {
      if (!(c->Snapshot(static_cast<int>(g)) ==
            d.Snapshot(static_cast<int>(g)))) {
        return false;
      }
    }
  }
  if (const auto* p = dynamic_cast<const PairwisePropertyTool*>(&a)) {
    const auto& q = dynamic_cast<const PairwisePropertyTool&>(b);
    for (int s = 0; s < p->num_specs(); ++s) {
      if (!(p->Snapshot(s) == q.Snapshot(s))) return false;
    }
  }
  return true;
}

class SearchIndexTest : public ::testing::TestWithParam<size_t> {};

// Replays a recorded C-L-P / L-P-C run with every paper tool bound
// twice, once with its search index built and once without. Before each
// modification both price it (single and batch form), after it both
// measure, and every pair of figures is bitwise equal. At the end the
// indexed tools' maintained index equals the index the unindexed tools
// build from their statistics.
TEST_P(SearchIndexTest, UnindexedToolPricesAndMeasuresAsIndexed) {
  const Workload& w = Workloads()[GetParam()];
  SCOPED_TRACE(w.name);
  Data d = MakeData(w, 17);
  const std::unique_ptr<Database> start = d.scaled->Clone();

  // Record the run.
  Coordinator coordinator;
  for (auto& t : PaperTools(d.truth->schema())) {
    coordinator.AddTool(std::move(t));
  }
  ASSERT_TRUE(coordinator.SetTargetsFromDataset(*d.truth).ok());
  ModificationLog log(d.scaled.get());
  CoordinatorOptions opts;
  opts.seed = 3;
  opts.iterations = w.iterations;
  ASSERT_TRUE(coordinator.Run(d.scaled.get(), w.order, opts).ok());
  ASSERT_GT(log.size(), 1000);

  // Replay it under both kinds of tools.
  std::unique_ptr<Database> db = start->Clone();
  auto indexed = PaperTools(db->schema());
  auto plain = PaperTools(db->schema());
  for (size_t i = 0; i < indexed.size(); ++i) {
    for (PropertyTool* t : {indexed[i].get(), plain[i].get()}) {
      ASSERT_TRUE(t->SetTargetFromDataset(*d.truth).ok());
      ASSERT_TRUE(t->Bind(db.get()).ok());
      ASSERT_TRUE(t->RepairTarget().ok());
    }
    BuildSearchIndex(indexed[i].get());
  }
  int64_t objections = 0;
  for (const ModificationLog::Entry& e : log.entries()) {
    const std::span<const Modification> one(&e.mod, 1);
    for (size_t i = 0; i < indexed.size(); ++i) {
      const double a = indexed[i]->ValidationPenalty(e.mod);
      ASSERT_EQ(a, plain[i]->ValidationPenalty(e.mod))
          << indexed[i]->name();
      ASSERT_EQ(indexed[i]->ValidationPenaltyBatch(one, 0.0),
                plain[i]->ValidationPenaltyBatch(one, 0.0))
          << indexed[i]->name();
      objections += a > 0 ? 1 : 0;
    }
    ASSERT_TRUE(db->Apply(e.mod).ok());
    for (size_t i = 0; i < indexed.size(); ++i) {
      ASSERT_EQ(indexed[i]->Error(), plain[i]->Error()) << indexed[i]->name();
    }
  }
  EXPECT_GT(objections, 0);
  EXPECT_EQ(ContentHash(*db), ContentHash(*d.scaled));
  for (size_t i = 0; i < indexed.size(); ++i) {
    BuildSearchIndex(plain[i].get());
    EXPECT_TRUE(SameState(*indexed[i], *plain[i])) << indexed[i]->name();
    indexed[i]->Unbind();
    plain[i]->Unbind();
  }
}

// Forwards every call to a paper tool and records the database's table
// sizes around each of its steps.
class SizeRecordingTool : public ForwardingTool {
 public:
  SizeRecordingTool(std::unique_ptr<PropertyTool> inner,
                    std::vector<std::vector<int64_t>>* sizes)
      : ForwardingTool(std::move(inner)), sizes_(sizes) {}
  Status Bind(Database* db) override {
    db_ = db;
    return ForwardingTool::Bind(db);
  }
  Status Tweak(TweakContext* ctx) override {
    Record();
    const Status st = ForwardingTool::Tweak(ctx);
    Record();
    return st;
  }

 private:
  void Record() {
    std::vector<int64_t> sizes;
    for (int t = 0; t < db_->num_tables(); ++t) {
      sizes.push_back(db_->table(t).NumTuples());
    }
    sizes_->push_back(std::move(sizes));
  }

  std::vector<std::vector<int64_t>>* sizes_;
  Database* db_ = nullptr;
};

// Binding a tool at its first step also moves its RepairTarget there.
// The repair reads the bound table sizes, so it equals the repair at
// Run start only if no step changes a table's size: every step leaves
// each table at the size the scaler produced.
TEST_P(SearchIndexTest, EveryStepKeepsTableSizes) {
  const Workload& w = Workloads()[GetParam()];
  SCOPED_TRACE(w.name);
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batch auto" : "batch 1");
    Data d = MakeData(w, 23);
    std::vector<int64_t> scaled;
    for (int t = 0; t < d.scaled->num_tables(); ++t) {
      scaled.push_back(d.scaled->table(t).NumTuples());
    }
    std::vector<std::vector<int64_t>> sizes;
    Coordinator coordinator;
    for (auto& t : PaperTools(d.truth->schema())) {
      coordinator.AddTool(
          std::make_unique<SizeRecordingTool>(std::move(t), &sizes));
    }
    ASSERT_TRUE(coordinator.SetTargetsFromDataset(*d.truth).ok());
    CoordinatorOptions opts;
    opts.seed = 4;
    opts.iterations = w.iterations;
    opts.batch_auto = batched;
    const RunReport report =
        coordinator.Run(d.scaled.get(), w.order, opts).ValueOrAbort();
    ASSERT_EQ(sizes.size(), 2 * report.steps.size());
    for (size_t k = 0; k < sizes.size(); ++k) {
      EXPECT_EQ(sizes[k], scaled) << "step " << k / 2 << " "
                                  << report.steps[k / 2].tool
                                  << (k % 2 == 0 ? " before" : " after");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperWorkloads, SearchIndexTest,
                         ::testing::Values(size_t{0}, size_t{1}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string(Workloads()[info.param].name);
                         });

}  // namespace
}  // namespace aspect
