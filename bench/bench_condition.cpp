// Condition evaluation head-to-head: the tree-walk evaluator vs the typed
// condition VM on the same expressions and container states.
// The micro benchmark isolates pure evaluation cost (no navigation); the
// expressions range from the trivial guard every connector carries to the
// wide multi-clause predicates transaction-model translations emit.

#include <benchmark/benchmark.h>

#include <string>

#include "data/container.h"
#include "data/types.h"
#include "expr/compile.h"
#include "expr/condition.h"
#include "expr/eval.h"
#include "expr/vm.h"

namespace exotica::bench {
namespace {

// Index-matched expression set over the "Wide" type below.
constexpr const char* kExprs[] = {
    // 0: the ubiquitous connector guard — one load, one compare.
    "f0 = 0",
    // 1: the shape transition conditions take after translation — a
    // short-circuit chain with a negation.
    "f0 >= 0 AND f0 < 100 AND NOT (f0 = 9)",
    // 2: wide predicate: arithmetic, mixed fields, nested boolean
    // structure across eight members.
    "(f0 + f1 * 2 > f2 OR f3 = 1) AND (f4 - f5 <= f6 + 3) "
    "AND NOT (f7 = 5 OR f1 > f0 + f2)",
};

data::TypeRegistry* WideRegistry() {
  static data::TypeRegistry* reg = [] {
    auto* r = new data::TypeRegistry();
    data::StructType t("Wide");
    for (int i = 0; i < 8; ++i) {
      if (!t.AddScalar("f" + std::to_string(i), data::ScalarType::kLong,
                       data::Value(int64_t{i}))
               .ok()) {
        std::abort();
      }
    }
    if (!r->Register(std::move(t)).ok()) std::abort();
    return r;
  }();
  return reg;
}

// args: {expression index, evaluator}. Reported as evals/s.
// Evaluator 0 = tree-walk, 1 = typed VM (the "Wide" members are all longs,
// so every expression above types statically).
void BM_ConditionEval(benchmark::State& state) {
  const auto expr_idx = static_cast<size_t>(state.range(0));
  const int evaluator = static_cast<int>(state.range(1));

  auto container = data::Container::Create(*WideRegistry(), "Wide");
  if (!container.ok()) std::abort();
  for (int i = 0; i < 8; ++i) {
    if (!container->Set("f" + std::to_string(i), data::Value(int64_t{i}))
             .ok()) {
      std::abort();
    }
  }

  auto cond = expr::Condition::Compile(kExprs[expr_idx]);
  if (!cond.ok()) std::abort();
  auto prog = expr::ConditionCompiler::Compile(cond->root(), *container);
  if (!prog.ok()) std::abort();

  if (evaluator == 1) {
    for (auto _ : state) {
      auto r = prog->EvaluateBool(*container);
      if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
      benchmark::DoNotOptimize(r);
    }
  } else {
    for (auto _ : state) {
      expr::ContainerResolver resolver(*container);
      auto r = cond->Evaluate(resolver);
      if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
      benchmark::DoNotOptimize(r);
    }
  }
  state.counters["evals/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConditionEval)
    ->ArgNames({"expr", "vm"})
    ->Args({0, 0})->Args({0, 1})
    ->Args({1, 0})->Args({1, 1})
    ->Args({2, 0})->Args({2, 1});

// Compilation cost itself: what plan registration pays per condition.
void BM_ConditionCompile(benchmark::State& state) {
  const auto expr_idx = static_cast<size_t>(state.range(0));
  auto container = data::Container::Create(*WideRegistry(), "Wide");
  if (!container.ok()) std::abort();
  auto cond = expr::Condition::Compile(kExprs[expr_idx]);
  if (!cond.ok()) std::abort();

  for (auto _ : state) {
    auto prog = expr::ConditionCompiler::Compile(cond->root(), *container);
    if (!prog.ok()) state.SkipWithError(prog.status().ToString().c_str());
    benchmark::DoNotOptimize(prog);
  }
}
BENCHMARK(BM_ConditionCompile)->ArgName("expr")->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace exotica::bench
