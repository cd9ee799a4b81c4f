// Fleet integration: many saga instances across engine threads hammering
// a shared multidatabase with injected unilateral aborts — the saga
// guarantee must hold for every instance, and the cross-site books must
// balance at the end despite the absence of global atomic commit.

#include "wfrt/fleet.h"

#include <gtest/gtest.h>

#include <string>

#include "atm/saga.h"
#include "common/strings.h"
#include "exotica/programs.h"
#include "exotica/saga_translate.h"
#include "txn/multidb.h"
#include "wf/builder.h"
#include "../testutil.h"

namespace exotica {
namespace {

// Subtransactions with retries around lock conflicts: the fleet's engines
// contend on the same counters.
atm::SubTxnBody IncrementBody(const std::string& key) {
  return [key](txn::Transaction& t) -> Status {
    EXO_ASSIGN_OR_RETURN(data::Value v, t.Get(key));
    int64_t current = v.is_null() ? 0 : v.as_long();
    return t.Put(key, data::Value(current + 1));
  };
}

atm::SubTxnBody DecrementBody(const std::string& key) {
  return [key](txn::Transaction& t) -> Status {
    EXO_ASSIGN_OR_RETURN(data::Value v, t.Get(key));
    int64_t current = v.is_null() ? 0 : v.as_long();
    return t.Put(key, data::Value(current - 1));
  };
}

TEST(FleetTest, SagaGuaranteeHoldsAcrossConcurrentEngines) {
  constexpr int kEngines = 4;
  constexpr int kInstances = 80;

  txn::MultiDatabase mdb;
  ASSERT_TRUE(mdb.AddSite("orders").ok());
  ASSERT_TRUE(mdb.AddSite("stock").ok());
  ASSERT_TRUE(mdb.AddSite("billing").ok());
  // Two sites refuse some commits: a fifth of the sagas will abort at
  // various points and must compensate.
  (*mdb.site("stock"))->SetCommitFailureRate(0.15, 11);
  (*mdb.site("billing"))->SetCommitFailureRate(0.15, 17);

  atm::MultiDbRunner runner(&mdb);
  ASSERT_TRUE(runner.Register({"Order", "orders", IncrementBody("count"),
                               DecrementBody("count")}).ok());
  ASSERT_TRUE(runner.Register({"Reserve", "stock", IncrementBody("count"),
                               DecrementBody("count")}).ok());
  ASSERT_TRUE(runner.Register({"Bill", "billing", IncrementBody("count"),
                               DecrementBody("count")}).ok());

  atm::SagaSpec spec("Fulfil");
  spec.Then("Order").Then("Reserve").Then("Bill");

  wf::DefinitionStore store;
  auto translation = exo::TranslateSaga(spec, &store);
  ASSERT_TRUE(translation.ok()) << translation.status().ToString();
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(exo::BindSagaPrograms(spec, store, &runner, &programs).ok());

  wfrt::EngineFleet fleet(&store, &programs, kEngines);
  auto result = fleet.RunBatch(translation->root_process, kInstances);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const std::string& e : result->errors) {
    EXPECT_TRUE(e.empty()) << e;
  }
  // instances_finished counts roots only; the stats count block children.
  EXPECT_EQ(result->instances_finished, static_cast<uint64_t>(kInstances));
  EXPECT_GT(result->aggregate.instances_finished, result->instances_finished);

  // Count outcomes across engines: committed sagas applied all three
  // increments; aborted ones net zero.
  int committed = 0;
  int roots = 0;
  for (int e = 0; e < fleet.size(); ++e) {
    wfrt::Engine* engine = fleet.engine(e);
    for (const std::string& id : engine->instance_order()) {
      auto inst = engine->FindInstance(id);
      ASSERT_TRUE(inst.ok());
      if ((*inst)->is_child()) continue;  // blocks
      ++roots;
      auto out = engine->OutputOf(id);
      ASSERT_TRUE(out.ok());
      if (out->Get("RC")->as_long() == 0) ++committed;
    }
  }
  EXPECT_EQ(roots, kInstances);
  // With a 15% per-site abort rate some sagas must have aborted and some
  // committed (probabilistically certain with these seeds).
  EXPECT_GT(committed, 0);
  EXPECT_LT(committed, kInstances);

  // The books balance: each site's counter equals the number of committed
  // sagas — everything else was compensated, with no global commit
  // protocol anywhere.
  for (const char* site : {"orders", "stock", "billing"}) {
    auto v = (*mdb.site(site))->ReadCommitted("count");
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->as_long(), committed) << site;
  }
}

TEST(FleetTest, SharedArenasCoverSubprocessClosure) {
  // A batch seeding only the outer process must still serve *inner*
  // (block) spin-ups from fleet-shared arenas: PrepareArenas walks the
  // transitive subprocess closure before the workers launch.
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(test::DeclareDefaultProgram(&store, "ok").ok());
  ASSERT_TRUE(test::BindConstRc(&programs, "ok", 0).ok());

  wf::ProcessBuilder inner(&store, "inner");
  inner.Program("X", "ok").Program("Y", "ok");
  inner.Connect("X", "Y", "RC = 0");
  ASSERT_TRUE(inner.Register().ok());

  wf::ProcessBuilder outer(&store, "outer");
  outer.Program("A", "ok");
  outer.Block("B", "inner");
  outer.Connect("A", "B", "RC = 0");
  ASSERT_TRUE(outer.Register().ok());

  constexpr int kEngines = 3;
  constexpr int kInstances = 12;
  wfrt::EngineFleet fleet(&store, &programs, kEngines);
  auto result = fleet.RunBatch("outer", kInstances);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok());
  // The batch reports its roots; the stats count the inner block child of
  // every outer instance too.
  EXPECT_EQ(result->instances_finished, static_cast<uint64_t>(kInstances));
  EXPECT_EQ(result->aggregate.instances_finished, 2u * kInstances);
  // One spin-up for each outer instance plus one for each inner block
  // child — every single one from a shared arena, none private.
  EXPECT_EQ(result->aggregate.arena_spinups, 2u * kInstances);
  EXPECT_EQ(result->aggregate.arena_shared_hits, 2u * kInstances);

  // A second batch reuses the same arenas without rebuilding, and reports
  // only its own spin-ups.
  auto again = fleet.RunBatch("outer", kEngines);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->ok());
  EXPECT_EQ(again->instances_finished, static_cast<uint64_t>(kEngines));
  EXPECT_EQ(again->aggregate.arena_shared_hits, 2u * kEngines);
}

TEST(FleetTest, RoundRobinDistribution) {
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(test::DeclareDefaultProgram(&store, "ok").ok());
  ASSERT_TRUE(test::BindConstRc(&programs, "ok", 0).ok());
  wf::ProcessBuilder b(&store, "p");
  b.Program("A", "ok");
  ASSERT_TRUE(b.Register().ok());

  // Static scheduling (stealing off) so per-engine counts are exact.
  wfrt::FleetOptions fo;
  fo.work_stealing = false;
  wfrt::EngineFleet fleet(&store, &programs, 3, {}, fo);
  auto result = fleet.RunBatch("p", 10);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->instances_finished, 10u);
  // 10 over 3 engines: 4 + 3 + 3.
  EXPECT_EQ(fleet.engine(0)->stats().instances_finished, 4u);
  EXPECT_EQ(fleet.engine(1)->stats().instances_finished, 3u);
  EXPECT_EQ(fleet.engine(2)->stats().instances_finished, 3u);
}

TEST(FleetTest, QuarantinedInstancesAreReportedAndDoNotMaskOthers) {
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(test::DeclareDefaultProgram(&store, "picky").ok());
  wf::ProcessBuilder b(&store, "p");
  b.Program("A", "picky");
  b.MapToOutput("A", {{"RC", "RC"}});
  ASSERT_TRUE(b.Register().ok());

  // Each engine numbers its instances independently, so exactly one
  // "<prefix>wf-1" exists per engine: one poisoned instance per engine,
  // permanently.
  ASSERT_TRUE(programs
                  .Bind("picky",
                        [](const data::Container&, data::Container* out,
                           const wfrt::ProgramContext& ctx) -> Status {
                          if (EndsWith(ctx.instance_id, ":wf-1") ||
                              ctx.instance_id == "wf-1") {
                            return Status::Unsupported("bad instance");
                          }
                          out->Set("RC", data::Value(int64_t{0}));
                          return Status::OK();
                        })
                  .ok());

  wfrt::EngineFleet fleet(&store, &programs, 2);
  auto result = fleet.RunBatch("p", 6);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // No engine-level error — the quarantine is an instance-level outcome —
  // but the batch is not clean, and every healthy instance still finished.
  for (const std::string& e : result->errors) {
    EXPECT_TRUE(e.empty()) << e;
  }
  EXPECT_FALSE(result->ok());
  EXPECT_EQ(result->instances_finished, 4u);
  EXPECT_EQ(result->aggregate.instances_failed, 2u);
  EXPECT_EQ(result->aggregate.permanent_failures, 2u);
  ASSERT_EQ(result->failed_instances.size(), 2u);
  for (const wfrt::EngineFleet::InstanceError& err : result->failed_instances) {
    EXPECT_TRUE(EndsWith(err.id, "wf-1")) << err.id;
    EXPECT_NE(err.error.find("permanent"), std::string::npos) << err.error;
  }
  EXPECT_NE(result->failed_instances[0].id, result->failed_instances[1].id);
}

TEST(FleetTest, ReusedFleetReportsPerBatchResults) {
  // One fleet, two batches of N roots; one instance of batch 1 is poisoned
  // permanently. Batch 2 must report its own N finished roots and come
  // back clean — batch 1's quarantine is not re-reported.
  constexpr int kRoots = 8;
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(test::DeclareDefaultProgram(&store, "picky").ok());
  ASSERT_TRUE(test::DeclareDefaultProgram(&store, "ok").ok());
  ASSERT_TRUE(test::BindConstRc(&programs, "ok", 0).ok());
  ASSERT_TRUE(programs
                  .Bind("picky",
                        [](const data::Container&, data::Container* out,
                           const wfrt::ProgramContext& ctx) -> Status {
                          if (ctx.instance_id == "e0:wf-1") {
                            return Status::Unsupported("bad instance");
                          }
                          return out->Set("RC", data::Value(int64_t{0}));
                        })
                  .ok());
  // A block per root, so the stats count more instances than roots.
  wf::ProcessBuilder inner(&store, "inner");
  inner.Program("X", "ok");
  ASSERT_TRUE(inner.Register().ok());
  wf::ProcessBuilder b(&store, "p");
  b.Program("A", "picky");
  b.Block("B", "inner");
  b.Connect("A", "B");
  ASSERT_TRUE(b.Register().ok());

  wfrt::EngineFleet fleet(&store, &programs, 2);
  auto first = fleet.RunBatch("p", kRoots);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->ok());
  EXPECT_EQ(first->instances_finished, static_cast<uint64_t>(kRoots - 1));
  ASSERT_EQ(first->failed_instances.size(), 1u);
  EXPECT_EQ(first->failed_instances[0].id, "e0:wf-1");
  EXPECT_EQ(first->aggregate.instances_failed, 1u);

  auto second = fleet.RunBatch("p", kRoots);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->ok());
  EXPECT_EQ(second->instances_finished, static_cast<uint64_t>(kRoots));
  EXPECT_TRUE(second->failed_instances.empty());
  EXPECT_EQ(second->aggregate.instances_failed, 0u);
  EXPECT_EQ(second->aggregate.roots_finished, static_cast<uint64_t>(kRoots));
  EXPECT_EQ(second->aggregate.instances_finished, 2u * kRoots);
}

TEST(EngineStatsTest, TableDrivesEveryField) {
  // Every counter is declared once in EXO_ENGINE_STATS, with its help
  // text, and the generated struct, aggregation and delta cover it all.
#define EXO_COUNT_FIELD(name, help) +1
  constexpr size_t kFields = 0 EXO_ENGINE_STATS(EXO_COUNT_FIELD);
#undef EXO_COUNT_FIELD
  EXPECT_EQ(sizeof(wfrt::EngineStats), kFields * sizeof(uint64_t));
#define EXO_CHECK_HELP(name, help) EXPECT_GT(std::string(help).size(), 0u);
  EXO_ENGINE_STATS(EXO_CHECK_HELP)
#undef EXO_CHECK_HELP

  wfrt::EngineStats a;
  uint64_t v = 0;
#define EXO_SET_FIELD(name, help) a.name = ++v;
  EXO_ENGINE_STATS(EXO_SET_FIELD)
#undef EXO_SET_FIELD
  wfrt::EngineStats sum = a;
  sum += a;
  wfrt::EngineStats delta = sum - a;
#define EXO_CHECK_FIELD(name, help)    \
  EXPECT_EQ(sum.name, 2 * a.name) << #name; \
  EXPECT_EQ(delta.name, a.name) << #name;
  EXO_ENGINE_STATS(EXO_CHECK_FIELD)
#undef EXO_CHECK_FIELD
}

TEST(FleetTest, ErrorsSurfacePerEngine) {
  wf::DefinitionStore store;
  wfrt::ProgramRegistry programs;
  ASSERT_TRUE(test::DeclareDefaultProgram(&store, "ghost").ok());
  wf::ProcessBuilder b(&store, "p");
  b.Program("A", "ghost");  // declared but never bound
  ASSERT_TRUE(b.Register().ok());

  wfrt::EngineFleet fleet(&store, &programs, 2);
  auto result = fleet.RunBatch("p", 4);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->ok());

  EXPECT_TRUE(fleet.RunBatch("ghostproc", 1).status().IsNotFound());
  EXPECT_TRUE(fleet.RunBatch("p", -1).status().IsInvalidArgument());
}

}  // namespace
}  // namespace exotica
