// Flexible transactions: the Figure-3 example's three paths, the
// well-formedness checker, and the native executor.

#include "atm/flex.h"

#include <gtest/gtest.h>

namespace exotica::atm {
namespace {

using S = FlexStep;

TEST(FlexSpecTest, Figure3SpecIsWellFormed) {
  FlexSpec spec = MakeFigure3Spec();
  EXPECT_TRUE(spec.Validate().ok()) << spec.Validate().ToString();
  EXPECT_EQ(spec.Subs().size(), 8u);
  EXPECT_EQ(spec.root().ToString(),
            "Seq[T1(c), T2(p), Alt(Seq[T4(p), Alt(Seq[T5(c), T6(c), T8(p)], "
            "T7(r))], T3(r))]");
}

TEST(FlexSpecTest, StructuralValidation) {
  // Duplicate names.
  std::vector<FlexStepPtr> dup;
  dup.push_back(S::Compensatable("T1"));
  dup.push_back(S::Compensatable("T1"));
  EXPECT_TRUE(
      FlexSpec("dup", S::Seq(std::move(dup))).Validate().IsValidationError());

  // Empty names.
  std::vector<FlexStepPtr> unnamed;
  unnamed.push_back(S::Compensatable(""));
  EXPECT_TRUE(FlexSpec("anon", S::Seq(std::move(unnamed)))
                  .Validate()
                  .IsValidationError());
}

TEST(FlexSpecTest, NonRetriableAfterPivotRejected) {
  // Seq[P(pivot), C(compensatable)]: after P commits nothing may fail, but
  // C can abort.
  std::vector<FlexStepPtr> steps;
  steps.push_back(S::Pivot("P"));
  steps.push_back(S::Compensatable("C"));
  Status st = FlexSpec("bad", S::Seq(std::move(steps))).Validate();
  EXPECT_TRUE(st.IsValidationError()) << st.ToString();
}

TEST(FlexSpecTest, RetriableAfterPivotAccepted) {
  std::vector<FlexStepPtr> steps;
  steps.push_back(S::Pivot("P"));
  steps.push_back(S::Retriable("R"));
  EXPECT_TRUE(FlexSpec("ok", S::Seq(std::move(steps))).Validate().ok());
}

TEST(FlexSpecTest, TwoPivotsInSequenceRejected) {
  std::vector<FlexStepPtr> steps;
  steps.push_back(S::Pivot("P1"));
  steps.push_back(S::Pivot("P2"));
  EXPECT_TRUE(FlexSpec("twopivots", S::Seq(std::move(steps)))
                  .Validate()
                  .IsValidationError());
}

TEST(FlexSpecTest, SecondPivotBehindGuaranteedAlternativeAccepted) {
  // Seq[P1, Alt(P2, R)]: after P1, the Alt is guaranteed via retriable R.
  std::vector<FlexStepPtr> steps;
  steps.push_back(S::Pivot("P1"));
  steps.push_back(S::Alt(S::Pivot("P2"), S::Retriable("R")));
  EXPECT_TRUE(FlexSpec("ok2", S::Seq(std::move(steps))).Validate().ok());
}

TEST(FlexSpecTest, AltAfterPivotNeedsGuaranteedFallback) {
  // Fallback is a pivot: not guaranteed.
  std::vector<FlexStepPtr> steps;
  steps.push_back(S::Pivot("P1"));
  steps.push_back(S::Alt(S::Pivot("P2"), S::Pivot("P3")));
  EXPECT_TRUE(FlexSpec("bad2", S::Seq(std::move(steps)))
                  .Validate()
                  .IsValidationError());
}

TEST(FlexSpecTest, NonCompensatableBeforeLaterFailureRejected) {
  // R commits (retriable, non-compensatable), then the pivot P may abort:
  // the global abort would have to undo R, which is impossible.
  std::vector<FlexStepPtr> steps;
  steps.push_back(S::Retriable("R"));
  steps.push_back(S::Pivot("P"));
  Status st = FlexSpec("bad3", S::Seq(std::move(steps))).Validate();
  EXPECT_TRUE(st.IsValidationError()) << st.ToString();
}

TEST(FlexSpecTest, CompensatableAndRetriableLeafAllowedPrePivot) {
  std::vector<FlexStepPtr> steps;
  steps.push_back(S::Sub("CR", /*compensatable=*/true, /*retriable=*/true));
  steps.push_back(S::Pivot("P"));
  EXPECT_TRUE(FlexSpec("ok3", S::Seq(std::move(steps))).Validate().ok());
}

TEST(FlexStepTest, Predicates) {
  EXPECT_TRUE(S::Pivot("p")->is_pivot());
  EXPECT_FALSE(S::Retriable("r")->is_pivot());
  EXPECT_TRUE(S::Retriable("r")->Guaranteed());
  EXPECT_FALSE(S::Pivot("p")->Guaranteed());

  auto alt = S::Alt(S::Pivot("p"), S::Retriable("r"));
  EXPECT_TRUE(alt->Guaranteed());
  EXPECT_TRUE(alt->HasPivot());
  EXPECT_FALSE(alt->AllCompensatable());

  auto clone = alt->Clone();
  EXPECT_EQ(clone->ToString(), alt->ToString());
}

// ---- Figure-3 execution: every meaningful abort pattern --------------------

struct Fig3Case {
  const char* name;
  std::vector<std::string> always_abort;   // permanently aborting subs
  std::vector<std::pair<std::string, int>> abort_first;  // transient aborts
  bool want_committed;
  std::vector<std::string> want_effective;  // final committed-and-kept set
};

// Prints the case by name, so the listed test names carry no pointer
// bytes (which differ from run to run under address randomization).
void PrintTo(const Fig3Case& c, std::ostream* os) { *os << c.name; }

class Figure3Test : public ::testing::TestWithParam<Fig3Case> {};

TEST_P(Figure3Test, TakesTheExpectedPath) {
  const Fig3Case& c = GetParam();
  ScriptedRunner runner;
  for (const auto& name : c.always_abort) runner.AlwaysAbort(name);
  for (const auto& [name, n] : c.abort_first) runner.AbortFirst(name, n);

  FlexExecutor executor(&runner);
  auto outcome = executor.Execute(MakeFigure3Spec());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->committed, c.want_committed);
  EXPECT_EQ(outcome->effective, c.want_effective);
}

INSTANTIATE_TEST_SUITE_P(
    Paths, Figure3Test,
    ::testing::Values(
        // No failures: preferred path p1 = {T1,T2,T4,T5,T6,T8}.
        Fig3Case{"p1", {}, {}, true, {"T1", "T2", "T4", "T5", "T6", "T8"}},
        // T1 aborts: the whole transaction aborts.
        Fig3Case{"t1_aborts", {"T1"}, {}, false, {}},
        // T2 aborts: compensate T1; transaction aborts.
        Fig3Case{"t2_aborts", {"T2"}, {}, false, {}},
        // T5 aborts: compensate nothing committed in p1 yet beyond T5
        // (it aborted), fall back to T7 -> p2 = {T1,T2,T4,T7}.
        Fig3Case{"p2_via_t5", {"T5"}, {}, true, {"T1", "T2", "T4", "T7"}},
        // T6 aborts: compensate T5, then T7 -> p2.
        Fig3Case{"p2_via_t6", {"T6"}, {}, true, {"T1", "T2", "T4", "T7"}},
        // T8 aborts (the paper's appendix walk-through): compensate T5 and
        // T6, then run T7 until it commits -> p2.
        Fig3Case{"p2_via_t8", {"T8"}, {}, true, {"T1", "T2", "T4", "T7"}},
        // T8 aborts and T7 needs three tries: still p2.
        Fig3Case{"p2_t7_retries",
                 {"T8"},
                 {{"T7", 2}},
                 true,
                 {"T1", "T2", "T4", "T7"}}),
    [](const ::testing::TestParamInfo<Fig3Case>& info) {
      return info.param.name;
    });

TEST(Figure3PathTest, Path3IsACommitNotAnAbort) {
  // When T4 aborts, T3 runs until it commits and the transaction COMMITS
  // via p3 = {T1,T2,T3}.
  ScriptedRunner runner;
  runner.AlwaysAbort("T4");
  FlexExecutor executor(&runner);
  auto outcome = executor.Execute(MakeFigure3Spec());
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->committed);
  EXPECT_EQ(outcome->effective, (std::vector<std::string>{"T1", "T2", "T3"}));

  ScriptedRunner runner2;
  runner2.AlwaysAbort("T4");
  runner2.AbortFirst("T3", 3);
  auto outcome2 = FlexExecutor(&runner2).Execute(MakeFigure3Spec());
  ASSERT_TRUE(outcome2.ok());
  EXPECT_TRUE(outcome2->committed);
  EXPECT_EQ(outcome2->effective, (std::vector<std::string>{"T1", "T2", "T3"}));
  EXPECT_EQ(runner2.attempts("T3"), 4);
}

TEST(FlexExecutorTest, CompensationOrderIsReverseCommitOrder) {
  ScriptedRunner runner;
  runner.AlwaysAbort("T8");
  FlexExecutor executor(&runner);
  auto outcome = executor.Execute(MakeFigure3Spec());
  ASSERT_TRUE(outcome.ok());
  auto compensated = Select(outcome->trace, TraceAction::kCompensated);
  EXPECT_EQ(compensated, (std::vector<std::string>{"T6", "T5"}));
}

TEST(FlexExecutorTest, GlobalAbortCompensatesEverythingCommitted) {
  ScriptedRunner runner;
  runner.AlwaysAbort("T2");
  FlexExecutor executor(&runner);
  auto outcome = executor.Execute(MakeFigure3Spec());
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->committed);
  auto compensated = Select(outcome->trace, TraceAction::kCompensated);
  EXPECT_EQ(compensated, (std::vector<std::string>{"T1"}));
  EXPECT_TRUE(outcome->effective.empty());
}

TEST(FlexExecutorTest, RetriableRetryCapErrors) {
  ScriptedRunner runner;
  runner.AlwaysAbort("T4");
  runner.AlwaysAbort("T3");  // the guaranteed fallback never succeeds
  FlexExecutor::Options opts;
  opts.max_retriable_retries = 10;
  FlexExecutor executor(&runner, opts);
  auto outcome = executor.Execute(MakeFigure3Spec());
  EXPECT_TRUE(outcome.status().IsFailedPrecondition());
}

TEST(FlexExecutorTest, NestedSagasEmbedAsAllCompensatableTrees) {
  // The paper (§4.1) notes sagas were generalized to nested form
  // [GMGK+90]. A nested saga is exactly a flexible-transaction tree whose
  // leaves are all compensatable: the child saga Seq[B1,B2] sits as one
  // step of the parent Seq[A1, child, A2].
  std::vector<FlexStepPtr> child;
  child.push_back(S::Compensatable("B1"));
  child.push_back(S::Compensatable("B2"));
  std::vector<FlexStepPtr> parent;
  parent.push_back(S::Compensatable("A1"));
  parent.push_back(S::Seq(std::move(child)));
  parent.push_back(S::Compensatable("A2"));
  FlexSpec spec("Nested", S::Seq(std::move(parent)));
  ASSERT_TRUE(spec.Validate().ok()) << spec.Validate().ToString();

  // A2 aborts: the whole nested structure compensates in reverse commit
  // order, crossing the child boundary.
  ScriptedRunner runner;
  runner.AlwaysAbort("A2");
  FlexExecutor executor(&runner);
  auto outcome = executor.Execute(spec);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->committed);
  EXPECT_EQ(Select(outcome->trace, TraceAction::kCompensated),
            (std::vector<std::string>{"B2", "B1", "A1"}));

  // B2 aborts mid-child: only the committed prefix compensates.
  ScriptedRunner runner2;
  runner2.AlwaysAbort("B2");
  auto outcome2 = FlexExecutor(&runner2).Execute(spec);
  ASSERT_TRUE(outcome2.ok());
  EXPECT_FALSE(outcome2->committed);
  EXPECT_EQ(Select(outcome2->trace, TraceAction::kCompensated),
            (std::vector<std::string>{"B1", "A1"}));
}

TEST(FlexExecutorTest, InvalidSpecRefusedBeforeExecution) {
  std::vector<FlexStepPtr> steps;
  steps.push_back(S::Pivot("P1"));
  steps.push_back(S::Pivot("P2"));
  FlexSpec bad("bad", S::Seq(std::move(steps)));
  ScriptedRunner runner;
  FlexExecutor executor(&runner);
  EXPECT_TRUE(executor.Execute(bad).status().IsValidationError());
}

}  // namespace
}  // namespace exotica::atm
