#include "trace.h"

#include <gtest/gtest.h>

#include <thread>

namespace perfbench {
namespace {

Span At(int64_t parent, double start, double end) {
  return Span{0, parent, start, end};
}

TEST(SelfTimesTest, SubtractsTheUnionOfNestedAndOverlappingChildren) {
  const std::vector<Span> spans = {
      At(-1, 0, 10),     // 0: root
      At(0, 1, 3),       // 1: child
      At(0, 2, 5),       // 2: child overlapping 1 (a concurrent worker)
      At(0, 7, 8),       // 3: child
      At(1, 1.5, 2.5),   // 4: grandchild, nested in 1
  };
  const std::vector<double> self = SelfTimes(spans);
  // The root's children cover [1, 5] and [7, 8]: 5 of its 10 seconds.
  EXPECT_DOUBLE_EQ(self[0], 5);
  EXPECT_DOUBLE_EQ(self[1], 1);  // 2 s minus the 1 s grandchild
  EXPECT_DOUBLE_EQ(self[2], 3);
  EXPECT_DOUBLE_EQ(self[3], 1);
  EXPECT_DOUBLE_EQ(self[4], 1);
}

TEST(SelfTimesTest, CountsIdenticalConcurrentChildrenOnce) {
  const std::vector<Span> spans = {At(-1, 0, 4), At(0, 1, 3), At(0, 1, 3),
                                   At(0, 2, 3)};
  EXPECT_DOUBLE_EQ(SelfTimes(spans)[0], 2);
}

TEST(SelfTimesTest, ClipsChildrenToTheParent) {
  const std::vector<Span> spans = {At(-1, 0, 4), At(0, 3, 6), At(0, -1, 1)};
  EXPECT_DOUBLE_EQ(SelfTimes(spans)[0], 2);
}

TEST(SelfTimesTest, SelfTimesOfWellNestedSpansSumToTheRoot) {
  const std::vector<Span> spans = {At(-1, 0, 9), At(0, 1, 4), At(1, 2, 3),
                                   At(0, 5, 6), At(3, 5.25, 5.5)};
  double sum = 0;
  for (const double s : SelfTimes(spans)) sum += s;
  EXPECT_DOUBLE_EQ(sum, 9);
}

TEST(TracerTest, ParentsSpansByThread) {
  Tracer tracer;
  const int name = tracer.NameId("layer");
  EXPECT_EQ(tracer.NameId("layer"), name);
  int64_t outer = -1;
  int64_t worker = -1;
  int64_t nested = -1;
  {
    ScopedSpan root(&tracer, name);
    outer = static_cast<int64_t>(tracer.spans().size()) - 1;
    std::thread t([&] {
      ScopedSpan w(&tracer, name);
      worker = static_cast<int64_t>(tracer.spans().size()) - 1;
      ScopedSpan n(&tracer, name);
      nested = static_cast<int64_t>(tracer.spans().size()) - 1;
    });
    t.join();
  }
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[static_cast<size_t>(outer)].parent, -1);
  // A worker with no span open is parented to the owner's open span.
  EXPECT_EQ(spans[static_cast<size_t>(worker)].parent, outer);
  EXPECT_EQ(spans[static_cast<size_t>(nested)].parent, worker);
  for (const Span& s : spans) EXPECT_LE(s.start, s.end);
  const auto layers = Summarize(spans, tracer.names());
  EXPECT_EQ(layers.at("layer").calls, 3);
}

// A minimal tool: penalty 1 for modifications of table "hot".
class FakeTool : public aspect::PropertyTool {
 public:
  std::string name() const override { return "fake"; }
  aspect::Status SetTargetFromDataset(const aspect::Database&) override {
    return aspect::Status::OK();
  }
  aspect::Status RepairTarget() override { return aspect::Status::OK(); }
  aspect::Status CheckTargetFeasible() const override {
    return aspect::Status::OK();
  }
  aspect::Status Bind(aspect::Database*) override {
    bound_ = true;
    return aspect::Status::OK();
  }
  void Unbind() override { bound_ = false; }
  bool bound() const override { return bound_; }
  double Error() const override { return 0.5; }
  double ValidationPenalty(const aspect::Modification& mod) const override {
    return mod.table == "hot" ? 1 : 0;
  }
  aspect::AccessScope DeclaredScope() const override {
    aspect::AccessScope s;
    s.known = true;
    return s;
  }
  aspect::Status Tweak(aspect::TweakContext*) override {
    return aspect::Status::OK();
  }
  void OnApplied(const aspect::Modification&,
                 const std::vector<aspect::Value>&, aspect::TupleId) override {}

 private:
  bool bound_ = false;
};

TEST(TracedToolTest, ForwardsDescriptionsAndTimesWork) {
  Tracer tracer;
  auto inner = std::make_unique<FakeTool>();
  FakeTool* raw = inner.get();
  TracedTool tool(std::move(inner), &tracer);

  std::vector<aspect::ModificationListener*> listeners;
  tool.AppendListeners(&listeners);
  ASSERT_EQ(listeners.size(), 1u);
  EXPECT_EQ(listeners[0], raw);  // the inner tool listens, not the wrapper
  EXPECT_TRUE(tool.DeclaredScope().known);
  EXPECT_EQ(tool.name(), "fake");

  ASSERT_TRUE(tool.Bind(nullptr).ok());
  EXPECT_TRUE(tool.bound());
  EXPECT_EQ(tool.Error(), 0.5);
  aspect::Modification hot;
  hot.table = "hot";
  aspect::Modification cold;
  cold.table = "cold";
  EXPECT_EQ(tool.ValidationPenalty(hot), 1);
  EXPECT_EQ(tool.ValidationPenalty(cold), 0);
  const std::vector<aspect::Modification> batch = {hot, cold};
  EXPECT_EQ(tool.ValidationPenaltyBatch(batch), 1);

  const auto layers = Summarize(tracer.spans(), tracer.names());
  EXPECT_EQ(layers.at("properties.fake.bind").calls, 1);
  EXPECT_EQ(layers.at("properties.fake.error").calls, 1);
  EXPECT_EQ(layers.at("properties.fake.price").calls, 3);
  int64_t objections = 0;
  for (const auto& [id, n] : tracer.counters()) {
    if (tracer.names()[static_cast<size_t>(id)] ==
        "properties.fake.objections") {
      objections = n;
    }
  }
  EXPECT_EQ(objections, 2);
}

}  // namespace
}  // namespace perfbench
