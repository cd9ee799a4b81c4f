// Engine-level behaviour of the typed condition VM: registered plans
// carry slot-bound typed programs, navigation routes conditions through
// them (stats prove it), untypeable conditions fall back to the tree-walk
// with its exact errors, and the fleet shares one spin-up arena per
// definition.

#include <gtest/gtest.h>

#include <string>

#include "wf/builder.h"
#include "wfrt/engine.h"
#include "wfrt/fleet.h"
#include "../testutil.h"

namespace exotica {
namespace {

using test::BindConstRc;
using test::BindScriptedRc;
using test::DeclareDefaultProgram;
using wf::ActivityState;

class ConditionVmTest : public ::testing::Test {
 protected:
  void Register(const char* name, int fail_rc) {
    ASSERT_TRUE(DeclareDefaultProgram(&store_, "ok").ok());
    ASSERT_TRUE(BindConstRc(&programs_, "ok", fail_rc).ok());
    wf::ProcessBuilder b(&store_, name);
    b.Program("A", "ok").Program("B", "ok").Program("C", "ok");
    b.Connect("A", "B", "RC = 0 OR RC = 2");
    b.Connect("B", "C", "RC >= 0 AND RC < 10 AND NOT (RC = 9)");
    ASSERT_TRUE(b.Register().ok());
  }

  wf::DefinitionStore store_;
  wfrt::ProgramRegistry programs_;
};

TEST_F(ConditionVmTest, RegisteredPlanCarriesCompiledPrograms) {
  Register("p", 0);
  auto def = store_.FindProcess("p");
  ASSERT_TRUE(def.ok());
  const wf::NavigationPlan& plan = (*def)->plan();
  // Both conditioned connectors compiled; no exit conditions.
  EXPECT_EQ(plan.vm_program_count(), 2u);
  bool found_compiled = false;
  for (uint32_t c = 0; c < 2; ++c) {
    const wf::NavigationPlan::ConnectorInfo& ci = plan.connector(c);
    EXPECT_FALSE(ci.trivial);
    ASSERT_GE(ci.cond_vm, 0);
    const expr::CompiledCondition& prog = plan.vm_program(ci.cond_vm);
    EXPECT_FALSE(prog.empty());
    EXPECT_EQ(prog.bound_type(), "_Default");
    found_compiled = true;
  }
  EXPECT_TRUE(found_compiled);
}

TEST_F(ConditionVmTest, LazyPlanWithoutRegistryHasNoPrograms) {
  // plan() on a hand-built (unregistered) definition has no TypeRegistry,
  // so every condition keeps the tree-walk fallback.
  wf::ProcessDefinition def("bare");
  wf::Activity a;
  a.name = "A";
  ASSERT_TRUE(def.AddActivity(a).ok());
  a.name = "B";
  ASSERT_TRUE(def.AddActivity(a).ok());
  wf::ControlConnector c;
  c.from = "A";
  c.to = "B";
  auto cond = expr::Condition::Compile("RC = 0");
  ASSERT_TRUE(cond.ok());
  c.condition = *cond;
  ASSERT_TRUE(def.AddControlConnector(c).ok());
  const wf::NavigationPlan& plan = def.plan();
  EXPECT_EQ(plan.vm_program_count(), 0u);
  EXPECT_EQ(plan.connector(0).cond_vm, -1);
}

TEST_F(ConditionVmTest, NavigationUsesVmAndCountsIt) {
  Register("p", 0);
  wfrt::Engine engine(&store_, &programs_);
  auto id = engine.RunToCompletion("p");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(engine.IsFinished(*id));
  // Both conditions read only RC (a long), so both have typed programs.
  EXPECT_EQ(engine.stats().vm_condition_evals, 2u);
  EXPECT_EQ(engine.stats().tree_condition_evals, 0u);
}

TEST_F(ConditionVmTest, UntypeableConditionFallsBackToTreeWalk) {
  // String operands do not type: those connectors get no program, and the
  // engine reaches the tree-walk's result for them.
  data::StructType named("Named");
  ASSERT_TRUE(named.AddScalar("RC", data::ScalarType::kLong).ok());
  ASSERT_TRUE(named.AddScalar("Name", data::ScalarType::kString).ok());
  ASSERT_TRUE(store_.types().Register(std::move(named)).ok());
  wf::ProgramDeclaration decl;
  decl.name = "named";
  decl.output_type = "Named";
  ASSERT_TRUE(store_.DeclareProgram(std::move(decl)).ok());
  ASSERT_TRUE(programs_
                  .Bind("named",
                        [](const data::Container&, data::Container* out,
                           const wfrt::ProgramContext&) -> Status {
                          EXO_RETURN_NOT_OK(
                              out->Set("RC", data::Value(int64_t{0})));
                          return out->Set("Name", data::Value("x"));
                        })
                  .ok());
  ASSERT_TRUE(DeclareDefaultProgram(&store_, "ok").ok());
  ASSERT_TRUE(BindConstRc(&programs_, "ok", 0).ok());
  wf::ProcessBuilder b(&store_, "strings");
  b.Program("A", "named").Program("B", "ok").Program("C", "ok");
  b.Connect("A", "B", "Name = \"x\" AND RC = 0");
  b.Connect("A", "C", "Name < \"a\"");
  ASSERT_TRUE(b.Register().ok());
  auto def = store_.FindProcess("strings");
  ASSERT_TRUE(def.ok());
  EXPECT_EQ((*def)->plan().vm_program_count(), 0u);
  EXPECT_EQ((*def)->plan().connector(0).cond_vm, -1);
  EXPECT_EQ((*def)->plan().connector(1).cond_vm, -1);

  wfrt::Engine engine(&store_, &programs_);
  auto id = engine.RunToCompletion("strings");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*engine.StateOf(*id, "B"), ActivityState::kTerminated);
  EXPECT_EQ(*engine.StateOf(*id, "C"), ActivityState::kDead);
  EXPECT_EQ(engine.stats().vm_condition_evals, 0u);
  EXPECT_EQ(engine.stats().tree_condition_evals, 2u);
}

TEST_F(ConditionVmTest, VmAndTreeWalkProduceIdenticalTraces) {
  Register("p", 1);  // RC=1: first connector false → B, C dead via DPE
  wfrt::Engine engine(&store_, &programs_);
  auto id = engine.RunToCompletion("p");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*engine.StateOf(*id, "B"), ActivityState::kDead);
  EXPECT_EQ(*engine.StateOf(*id, "C"), ActivityState::kDead);
  EXPECT_EQ(engine.stats().tree_condition_evals, 0u);
  // The trace both evaluators produced, event for event, when the engine
  // could still run either on this process.
  EXPECT_EQ(engine.audit().CompactTrace(*id, {}),
            std::vector<std::string>({
                "wf-1:instance-started",
                "A:ready",
                "A:started",
                "A:finished",
                "A:terminated",
                "A->B:false",
                "B:dead",
                "B->C:false",
                "C:dead",
                "wf-1:instance-finished",
            }));
}

TEST_F(ConditionVmTest, ExitConditionLoopsThroughVm) {
  ASSERT_TRUE(DeclareDefaultProgram(&store_, "flaky").ok());
  // RC: 1, 1, 0 — exit condition false twice, then true.
  ASSERT_TRUE(BindScriptedRc(&programs_, "flaky", {1, 1, 0}).ok());
  wf::ProcessBuilder b(&store_, "loop");
  b.Program("A", "flaky").ExitWhen("RC = 0");
  ASSERT_TRUE(b.Register().ok());

  auto def = store_.FindProcess("loop");
  ASSERT_TRUE(def.ok());
  ASSERT_GE((*def)->plan().activity(0).exit_vm, 0);

  wfrt::Engine engine(&store_, &programs_);
  auto id = engine.RunToCompletion("loop");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(engine.IsFinished(*id));
  EXPECT_EQ(engine.stats().reschedules, 2u);
  EXPECT_EQ(engine.stats().vm_condition_evals, 3u);
}

TEST_F(ConditionVmTest, ConditionErrorIsFalseStillHonoredOnVmPath) {
  ASSERT_TRUE(DeclareDefaultProgram(&store_, "ok").ok());
  ASSERT_TRUE(BindConstRc(&programs_, "ok", 0).ok());
  wf::ProcessBuilder b(&store_, "err");
  b.Program("A", "ok").Program("B", "ok");
  // Division by zero at evaluation time (RC is 0): a data-dependent error
  // the typed program raises itself.
  b.Connect("A", "B", "10 / RC = 1");
  ASSERT_TRUE(b.Register().ok());
  auto def = store_.FindProcess("err");
  ASSERT_TRUE(def.ok());
  ASSERT_GE((*def)->plan().connector(0).cond_vm, 0);

  wfrt::EngineOptions options;
  options.condition_error_is_false = true;
  wfrt::Engine engine(&store_, &programs_, options);
  auto id = engine.RunToCompletion("err");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*engine.StateOf(*id, "B"), ActivityState::kDead);
  EXPECT_EQ(engine.stats().vm_condition_evals, 1u);

  // Without the option, navigation fails with the tree-walk's message.
  wfrt::Engine strict(&store_, &programs_);
  ASSERT_TRUE(strict.StartProcess("err").ok());
  Status err = strict.Run();
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.ToString(),
            "InvalidArgument: transition condition A -> B in wf-1: "
            "division by zero in condition");
}

TEST_F(ConditionVmTest, FleetSharesOneArenaPerDefinition) {
  Register("p", 0);
  wfrt::EngineFleet fleet(&store_, &programs_, 4);
  auto result = fleet.RunBatch("p", 32);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->instances_finished, 32u);
  // Every spin-up hit the fleet-shared arena rather than a private one.
  EXPECT_EQ(result->aggregate.arena_spinups, 32u);
  EXPECT_EQ(result->aggregate.arena_shared_hits, 32u);
  EXPECT_EQ(result->aggregate.vm_condition_evals, 64u);
  EXPECT_EQ(result->aggregate.tree_condition_evals, 0u);
}

}  // namespace
}  // namespace exotica
