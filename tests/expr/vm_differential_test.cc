// Differential property test: the typed condition VM must agree with the
// tree-walk evaluator on every expression it compiles — same value on
// success, same status (code AND message) on error — across randomized
// expressions and randomized container states, including null members and
// type errors. Expressions that do not type compile to no program at all
// (Unsupported), and the engine tree-walks them; a sample of both kinds is
// also run through an engine to check it reaches the tree-walk's outcome.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/container.h"
#include "expr/ast.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "expr/parser.h"
#include "expr/vm.h"
#include "wf/builder.h"
#include "wfrt/engine.h"

namespace exotica::expr {
namespace {

using data::ScalarType;
using data::Value;

/// Random expression generator. Value magnitudes are capped at 3 and
/// depth at 5, so the largest product chain a tree can build stays far
/// below int64 overflow (3^32 < 2^63) — the test must never trip UBSan
/// on its own inputs, only exercise the evaluators' defined error paths
/// (div/mod by zero, nulls, type mismatches).
class ExprGen {
 public:
  explicit ExprGen(Rng* rng) : rng_(rng) {}

  static constexpr const char* kIdents[] = {"la", "lb", "lzero", "lnull",
                                            "fa", "fb", "fnull",
                                            "sa", "snull", "ba", "bnull"};

  NodePtr Gen(int depth) {
    // Leaves at the depth cap; otherwise mostly interior nodes.
    int64_t pick = rng_->Uniform(0, depth <= 0 ? 1 : 9);
    switch (pick) {
      case 0:  // literal
        switch (rng_->Uniform(0, 3)) {
          case 0: return Node::Literal(Value(rng_->Uniform(-3, 3)));
          case 1: return Node::Literal(Value(0.5 * rng_->Uniform(-6, 6)));
          case 2: return Node::Literal(Value(rng_->Bernoulli(0.5)));
          default:
            return Node::Literal(
                Value(std::string(1, "abc"[rng_->Uniform(0, 2)])));
        }
      case 1:  // identifier
        return Node::Identifier(
            kIdents[rng_->Uniform(0, static_cast<int64_t>(std::size(kIdents)) - 1)]);
      case 2:  // unary
        return Node::Unary(rng_->Bernoulli(0.5) ? UnaryOp::kNot : UnaryOp::kNeg,
                           Gen(depth - 1));
      default: {  // binary
        static constexpr BinaryOp kOps[] = {
            BinaryOp::kAnd, BinaryOp::kOr,  BinaryOp::kEq,  BinaryOp::kNeq,
            BinaryOp::kLt,  BinaryOp::kLe,  BinaryOp::kGt,  BinaryOp::kGe,
            BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv,
            BinaryOp::kMod};
        BinaryOp op =
            kOps[rng_->Uniform(0, static_cast<int64_t>(std::size(kOps)) - 1)];
        return Node::Binary(op, Gen(depth - 1), Gen(depth - 1));
      }
    }
  }

 private:
  Rng* rng_;
};

class VmDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::StructType t("Fuzz");
    ASSERT_TRUE(t.AddScalar("la", ScalarType::kLong).ok());
    ASSERT_TRUE(t.AddScalar("lb", ScalarType::kLong).ok());
    ASSERT_TRUE(t.AddScalar("lzero", ScalarType::kLong).ok());
    ASSERT_TRUE(t.AddScalar("lnull", ScalarType::kLong).ok());
    ASSERT_TRUE(t.AddScalar("fa", ScalarType::kFloat).ok());
    ASSERT_TRUE(t.AddScalar("fb", ScalarType::kFloat).ok());
    ASSERT_TRUE(t.AddScalar("fnull", ScalarType::kFloat).ok());
    ASSERT_TRUE(t.AddScalar("sa", ScalarType::kString).ok());
    ASSERT_TRUE(t.AddScalar("snull", ScalarType::kString).ok());
    ASSERT_TRUE(t.AddScalar("ba", ScalarType::kBool).ok());
    ASSERT_TRUE(t.AddScalar("bnull", ScalarType::kBool).ok());
    ASSERT_TRUE(reg_.Register(std::move(t)).ok());
  }

  /// A randomized container: the *null members stay unwritten (they have
  /// no defaults, so they read null — the unset-data error path); the
  /// rest get small random values, lzero is 0 half the time (div/mod).
  data::Container RandomContainer(Rng* rng) {
    auto c = data::Container::Create(reg_, "Fuzz");
    EXPECT_TRUE(c.ok());
    data::Container container = std::move(*c);
    EXPECT_TRUE(container.Set("la", Value(rng->Uniform(-3, 3))).ok());
    EXPECT_TRUE(container.Set("lb", Value(rng->Uniform(-3, 3))).ok());
    EXPECT_TRUE(
        container
            .Set("lzero", Value(rng->Bernoulli(0.5) ? int64_t{0}
                                                    : rng->Uniform(1, 3)))
            .ok());
    EXPECT_TRUE(container.Set("fa", Value(0.5 * rng->Uniform(-6, 6))).ok());
    EXPECT_TRUE(container.Set("fb", Value(0.5 * rng->Uniform(-6, 6))).ok());
    EXPECT_TRUE(
        container.Set("sa", Value(std::string(1, "abc"[rng->Uniform(0, 2)])))
            .ok());
    EXPECT_TRUE(container.Set("ba", Value(rng->Bernoulli(0.5))).ok());
    return container;
  }

  data::TypeRegistry reg_;
};

/// What the compiled program says about one expression, side by side with
/// the tree-walk: both must succeed with equal values or fail with equal
/// status strings.
template <typename T>
void ExpectSameOutcome(const Result<T>& tree, const Result<T>& vm,
                       const std::string& what) {
  ASSERT_EQ(tree.ok(), vm.ok())
      << what << "\n tree: "
      << (tree.ok() ? "ok" : tree.status().ToString())
      << "\n vm:   " << (vm.ok() ? "ok" : vm.status().ToString());
  if (tree.ok()) {
    // No NaN can occur (division by zero errors out, % is long-only), so
    // structural equality is exact.
    ASSERT_EQ(*tree, *vm) << what;
  } else {
    ASSERT_EQ(tree.status().ToString(), vm.status().ToString()) << what;
  }
}

TEST_F(VmDifferentialTest, TenThousandRandomExpressionsAgree) {
  Rng rng(20260806);
  ExprGen gen(&rng);

  int typed = 0, untyped = 0, agreed_values = 0, agreed_errors = 0;
  constexpr int kExpressions = 12000;
  for (int i = 0; i < kExpressions; ++i) {
    NodePtr node = gen.Gen(5);
    data::Container container = RandomContainer(&rng);
    ContainerResolver resolver(container);
    Result<Value> tree = Evaluate(*node, resolver);
    tree.ok() ? ++agreed_values : ++agreed_errors;

    auto prog = ConditionCompiler::Compile(node.get(), container);
    if (!prog.ok()) {
      // Every identifier the generator emits exists in Fuzz and depth is
      // bounded, so the only reason to refuse is that the expression
      // does not type: it gets no program and tree-walks.
      ASSERT_TRUE(prog.status().IsUnsupported())
          << node->ToString() << ": " << prog.status().ToString();
      ++untyped;
      continue;
    }
    ++typed;
    ExpectSameOutcome(tree, prog->Evaluate(container), node->ToString());

    // When the canonical text reparses (the generator can build trees the
    // grammar cannot express, e.g. chained comparisons), the reparsed
    // tree must compile to the same outcome — that is the path plan
    // compilation actually consumes.
    if (i % 100 == 0) {
      auto reparsed = Parse(node->ToString());
      if (reparsed.ok()) {
        auto prog2 = ConditionCompiler::Compile(reparsed->get(), container);
        ASSERT_TRUE(prog2.ok()) << node->ToString();
        ExpectSameOutcome(tree, prog2->Evaluate(container), node->ToString());
      }
    }
  }
  // Sanity: the generator must exercise both regimes, and the typing pass
  // must monomorphize a meaningful share of the corpus (the generator
  // mixes string identifiers/literals in, so never all of it).
  EXPECT_GT(agreed_values, 1000);
  EXPECT_GT(agreed_errors, 1000);
  EXPECT_GT(typed, 1000);
  EXPECT_GT(untyped, 1000);
}

TEST_F(VmDifferentialTest, BoolCoercionAgreesUnderEvaluateBool) {
  Rng rng(7);
  ExprGen gen(&rng);
  for (int i = 0; i < 3000; ++i) {
    NodePtr node = gen.Gen(4);
    data::Container container = RandomContainer(&rng);
    auto prog = ConditionCompiler::Compile(node.get(), container);
    if (!prog.ok()) {
      ASSERT_TRUE(prog.status().IsUnsupported()) << node->ToString();
      continue;
    }
    ContainerResolver resolver(container);
    ExpectSameOutcome(EvaluateBool(*node, resolver),
                      prog->EvaluateBool(container), node->ToString());
  }
}

// A sample of the corpus as transition conditions of a registered
// process: whether the plan compiled a typed program or left the
// condition to the tree-walk, navigation must land where the tree-walk
// says — successor started, successor dead, or the tree-walk's error.
TEST_F(VmDifferentialTest, EngineReachesTreeWalkOutcome) {
  Rng rng(99);
  ExprGen gen(&rng);
  int typed = 0, untyped = 0;
  for (int i = 0; i < 400; ++i) {
    NodePtr node = gen.Gen(4);
    auto reparsed = Parse(node->ToString());
    if (!reparsed.ok()) continue;  // not expressible as condition text
    data::Container container = RandomContainer(&rng);
    ContainerResolver resolver(container);
    Result<bool> tree = EvaluateBool(**reparsed, resolver);

    wf::DefinitionStore store;
    auto fuzz = reg_.Find("Fuzz");
    ASSERT_TRUE(fuzz.ok());
    ASSERT_TRUE(store.types().Register(**fuzz).ok());
    wf::ProgramDeclaration decl;
    decl.name = "emit";
    decl.output_type = "Fuzz";
    ASSERT_TRUE(store.DeclareProgram(std::move(decl)).ok());
    wfrt::ProgramRegistry programs;
    ASSERT_TRUE(programs
                    .Bind("emit",
                          [&container](const data::Container&,
                                       data::Container* out,
                                       const wfrt::ProgramContext&) {
                            *out = container;
                            return Status::OK();
                          })
                    .ok());
    wf::ProcessBuilder b(&store, "p");
    b.Program("A", "emit").Program("B", "emit");
    b.Connect("A", "B", node->ToString());
    ASSERT_TRUE(b.Register().ok()) << node->ToString();
    auto def = store.FindProcess("p");
    ASSERT_TRUE(def.ok());
    (*def)->plan().connector(0).cond_vm >= 0 ? ++typed : ++untyped;

    wfrt::Engine engine(&store, &programs);
    auto id = engine.StartProcess("p");
    ASSERT_TRUE(id.ok());
    Status st = engine.Run();
    if (!tree.ok()) {
      EXPECT_EQ(st.ToString(),
                tree.status()
                    .WithContext("transition condition A -> B in " + *id)
                    .ToString())
          << node->ToString();
      continue;
    }
    ASSERT_TRUE(st.ok()) << node->ToString() << ": " << st.ToString();
    EXPECT_EQ(*engine.StateOf(*id, "B"), *tree ? wf::ActivityState::kTerminated
                                               : wf::ActivityState::kDead)
        << node->ToString();
  }
  EXPECT_GT(typed, 20);
  EXPECT_GT(untyped, 20);
}

}  // namespace
}  // namespace exotica::expr
