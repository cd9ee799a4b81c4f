// Figure 4 reproduction: the ZNBB94 flexible transaction translated by
// rules 1-7, executed on the workflow engine, compared against the native
// flexible-transaction executor across every abort pattern.

#include <gtest/gtest.h>

#include "atm/flex.h"
#include "exotica/flex_translate.h"
#include "exotica/programs.h"
#include "wfrt/engine.h"

namespace exotica {
namespace {

using atm::FlexExecutor;
using atm::FlexSpec;
using atm::FlexStep;
using atm::ScriptedRunner;

struct WorkflowFlexRun {
  bool committed = false;
  std::vector<std::string> committed_subs;  // in commit order, minus undone
  std::vector<std::string> compensations;   // in execution order
};

// Recording wrapper: tracks commits, compensations, and the net effect.
class Recorder : public atm::SubTxnRunner {
 public:
  explicit Recorder(ScriptedRunner* inner) : inner_(inner) {}

  Result<bool> Run(const std::string& name) override {
    EXO_ASSIGN_OR_RETURN(bool committed, inner_->Run(name));
    if (committed) effective_.push_back(name);
    return committed;
  }
  Result<bool> Compensate(const std::string& name) override {
    EXO_ASSIGN_OR_RETURN(bool done, inner_->Compensate(name));
    if (done) {
      compensations_.push_back(name);
      for (auto it = effective_.rbegin(); it != effective_.rend(); ++it) {
        if (*it == name) {
          effective_.erase(std::next(it).base());
          break;
        }
      }
    }
    return done;
  }

  const std::vector<std::string>& effective() const { return effective_; }
  const std::vector<std::string>& compensations() const {
    return compensations_;
  }

 private:
  ScriptedRunner* inner_;
  std::vector<std::string> effective_;
  std::vector<std::string> compensations_;
};

WorkflowFlexRun RunFlexWorkflow(const FlexSpec& spec, ScriptedRunner* runner) {
  WorkflowFlexRun out;
  wf::DefinitionStore store;
  auto translation = exo::TranslateFlex(spec, &store);
  EXPECT_TRUE(translation.ok()) << translation.status().ToString();
  if (!translation.ok()) return out;

  Recorder recorder(runner);
  wfrt::ProgramRegistry programs;
  EXPECT_TRUE(exo::BindFlexPrograms(spec, store, &recorder, &programs).ok());

  wfrt::Engine engine(&store, &programs);
  auto id = engine.RunToCompletion(translation->root_process);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  if (!id.ok()) return out;

  auto output = engine.OutputOf(*id);
  EXPECT_TRUE(output.ok());
  out.committed = output->Get("RC")->as_long() == 0;
  out.committed_subs = recorder.effective();
  out.compensations = recorder.compensations();
  return out;
}

struct AbortPattern {
  const char* name;
  std::vector<std::string> always_abort;
  std::vector<std::pair<std::string, int>> abort_first;
};

// Prints the pattern by name, so the listed test names carry no pointer
// bytes (which differ from run to run under address randomization).
void PrintTo(const AbortPattern& p, std::ostream* os) { *os << p.name; }

class FlexFigure4Test : public ::testing::TestWithParam<AbortPattern> {};

TEST_P(FlexFigure4Test, WorkflowMatchesNativeExecutor) {
  const AbortPattern& p = GetParam();

  auto configure = [&](ScriptedRunner* r) {
    for (const auto& name : p.always_abort) r->AlwaysAbort(name);
    for (const auto& [name, n] : p.abort_first) r->AbortFirst(name, n);
  };

  // Native baseline.
  ScriptedRunner native_runner;
  configure(&native_runner);
  FlexExecutor native(&native_runner);
  auto baseline = native.Execute(atm::MakeFigure3Spec());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Workflow implementation.
  ScriptedRunner wf_runner;
  configure(&wf_runner);
  WorkflowFlexRun run = RunFlexWorkflow(atm::MakeFigure3Spec(), &wf_runner);

  EXPECT_EQ(run.committed, baseline->committed) << p.name;
  EXPECT_EQ(run.committed_subs, baseline->effective) << p.name;
  // Compensation sets must match (order within a parallel-free run is
  // reverse commit order in both implementations).
  auto native_comps = Select(baseline->trace, atm::TraceAction::kCompensated);
  EXPECT_EQ(run.compensations, native_comps) << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    AbortPatterns, FlexFigure4Test,
    ::testing::Values(
        AbortPattern{"none", {}, {}},                      // p1
        AbortPattern{"t1", {"T1"}, {}},                    // global abort
        AbortPattern{"t2", {"T2"}, {}},                    // compensate T1
        AbortPattern{"t4", {"T4"}, {}},                    // p3
        AbortPattern{"t4_t3_retries", {"T4"}, {{"T3", 2}}},
        AbortPattern{"t5", {"T5"}, {}},                    // p2
        AbortPattern{"t6", {"T6"}, {}},                    // p2, comp T5
        AbortPattern{"t8", {"T8"}, {}},                    // p2, comp T5,T6
        AbortPattern{"t8_t7_retries", {"T8"}, {{"T7", 3}}},
        AbortPattern{"t5_transient", {}, {{"T5", 1}}},     // p2 anyway
        AbortPattern{"t2_transient", {}, {{"T2", 1}}}),    // aborts anyway
    [](const ::testing::TestParamInfo<AbortPattern>& info) {
      return info.param.name;
    });

TEST(FlexWorkflowTest, AppendixTraceForT8Abort) {
  // The appendix narrative: T1, T2, T4 commit; T5, T6 commit; T8 aborts;
  // T5^-1 and T6^-1 run; then T7 runs until it commits.
  ScriptedRunner runner;
  runner.AlwaysAbort("T8");
  WorkflowFlexRun run = RunFlexWorkflow(atm::MakeFigure3Spec(), &runner);
  EXPECT_TRUE(run.committed);
  EXPECT_EQ(run.committed_subs,
            (std::vector<std::string>{"T1", "T2", "T4", "T7"}));
  EXPECT_EQ(run.compensations, (std::vector<std::string>{"T6", "T5"}));
}

TEST(FlexWorkflowTest, TranslationRejectsIllFormedSpec) {
  std::vector<atm::FlexStepPtr> steps;
  steps.push_back(FlexStep::Pivot("P1"));
  steps.push_back(FlexStep::Pivot("P2"));
  FlexSpec bad("bad", FlexStep::Seq(std::move(steps)));
  wf::DefinitionStore store;
  EXPECT_TRUE(exo::TranslateFlex(bad, &store).status().IsValidationError());
}

TEST(FlexWorkflowTest, BareSubAndNestedAltShapes) {
  // A minimal Alt of two bare subs: primary pivot, fallback retriable.
  FlexSpec spec("Tiny",
                FlexStep::Alt(FlexStep::Pivot("A"), FlexStep::Retriable("B")));
  ASSERT_TRUE(spec.Validate().ok());

  {
    ScriptedRunner runner;  // A commits
    WorkflowFlexRun run = RunFlexWorkflow(spec, &runner);
    EXPECT_TRUE(run.committed);
    EXPECT_EQ(run.committed_subs, (std::vector<std::string>{"A"}));
  }
  {
    ScriptedRunner runner;
    runner.AlwaysAbort("A");
    runner.AbortFirst("B", 2);
    WorkflowFlexRun run = RunFlexWorkflow(spec, &runner);
    EXPECT_TRUE(run.committed);
    EXPECT_EQ(run.committed_subs, (std::vector<std::string>{"B"}));
    EXPECT_EQ(runner.attempts("B"), 3);
  }
}

TEST(FlexWorkflowTest, NestedCompositeCompensatedByParentFailure) {
  // The nested-saga shape: Seq[A1, Seq[B1,B2], A2] with every leaf
  // compensatable. A2's abort must undo the committed COMPOSITE child too
  // — the parent's compensation recurses into the child's compensation
  // process via the flattened State image.
  std::vector<atm::FlexStepPtr> child;
  child.push_back(FlexStep::Compensatable("B1"));
  child.push_back(FlexStep::Compensatable("B2"));
  std::vector<atm::FlexStepPtr> parent;
  parent.push_back(FlexStep::Compensatable("A1"));
  parent.push_back(FlexStep::Seq(std::move(child)));
  parent.push_back(FlexStep::Compensatable("A2"));
  FlexSpec spec("Nested", FlexStep::Seq(std::move(parent)));
  ASSERT_TRUE(spec.Validate().ok());

  ScriptedRunner runner;
  runner.AlwaysAbort("A2");
  WorkflowFlexRun run = RunFlexWorkflow(spec, &runner);
  EXPECT_FALSE(run.committed);
  EXPECT_TRUE(run.committed_subs.empty());
  EXPECT_EQ(run.compensations, (std::vector<std::string>{"B2", "B1", "A1"}));

  // And mid-child failure compensates only the committed prefix.
  ScriptedRunner runner2;
  runner2.AlwaysAbort("B2");
  WorkflowFlexRun run2 = RunFlexWorkflow(spec, &runner2);
  EXPECT_FALSE(run2.committed);
  EXPECT_EQ(run2.compensations, (std::vector<std::string>{"B1", "A1"}));
}

TEST(FlexWorkflowTest, CommittedAlternativeCompensatedByLaterFailure) {
  // Seq[Alt(F, T), P]: the alternative commits via its primary F; the
  // pivot P then aborts, and F must be compensated through the Alt's
  // composite compensation process.
  std::vector<atm::FlexStepPtr> steps;
  steps.push_back(FlexStep::Alt(FlexStep::Compensatable("F"),
                                FlexStep::Sub("T", true, true)));
  steps.push_back(FlexStep::Pivot("P"));
  FlexSpec spec("AltFirst", FlexStep::Seq(std::move(steps)));
  ASSERT_TRUE(spec.Validate().ok()) << spec.Validate().ToString();

  {
    ScriptedRunner runner;
    runner.AlwaysAbort("P");
    WorkflowFlexRun run = RunFlexWorkflow(spec, &runner);
    EXPECT_FALSE(run.committed);
    EXPECT_EQ(run.compensations, (std::vector<std::string>{"F"}));
    EXPECT_TRUE(run.committed_subs.empty());
  }
  {
    // F aborts; the compensatable+retriable fallback T commits; then P
    // aborts: T (not F) is compensated.
    ScriptedRunner runner;
    runner.AlwaysAbort("F");
    runner.AlwaysAbort("P");
    WorkflowFlexRun run = RunFlexWorkflow(spec, &runner);
    EXPECT_FALSE(run.committed);
    EXPECT_EQ(run.compensations, (std::vector<std::string>{"T"}));
  }
}

TEST(FlexWorkflowTest, CompensatableRetriableJoinsTheRun) {
  // Seq[C1, C2, R, C3, P]: R is compensatable+retriable, so the whole
  // prefix is one compensatable story. A pivot abort at the end
  // compensates in reverse commit order across both grouped runs.
  std::vector<atm::FlexStepPtr> steps;
  steps.push_back(FlexStep::Compensatable("C1"));
  steps.push_back(FlexStep::Compensatable("C2"));
  steps.push_back(FlexStep::Sub("R", /*compensatable=*/true, /*retriable=*/true));
  steps.push_back(FlexStep::Compensatable("C3"));
  steps.push_back(FlexStep::Pivot("P"));
  FlexSpec spec("Runs", FlexStep::Seq(std::move(steps)));
  ASSERT_TRUE(spec.Validate().ok()) << spec.Validate().ToString();

  ScriptedRunner runner;
  runner.AlwaysAbort("P");
  WorkflowFlexRun run = RunFlexWorkflow(spec, &runner);
  EXPECT_FALSE(run.committed);
  EXPECT_TRUE(run.committed_subs.empty());
  EXPECT_EQ(run.compensations,
            (std::vector<std::string>{"C3", "R", "C2", "C1"}));
}

}  // namespace
}  // namespace exotica
