// Every condition the Exotica translator emits must compile to a typed
// program: the saga and flexible-transaction translations only ever test
// long members (RC, State_<step>, ...), so nothing on their navigation
// path may fall back to the tree-walk. Checked over the paper's workloads
// compiled through the full FMTM pipeline (spec → translation → FDL →
// import), compensation and contingency blocks included.

#include <gtest/gtest.h>

#include <string>

#include "exotica/fmtm.h"
#include "wf/process.h"

namespace exotica {
namespace {

const char* kTripSaga = R"(
SAGA 'Trip'
  STEP 'Flight' PROGRAM 'reserve_flight' COMPENSATION 'cancel_flight';
  STEP 'Hotel';
  STEP 'Car';
END 'Trip'
)";

const char* kFigure3 = R"(
FLEXIBLE 'Fig3'
  SEQ
    SUB 'T1' COMPENSATABLE;
    SUB 'T2' PIVOT;
    ALT
      SEQ
        SUB 'T4' PIVOT;
        ALT
          SEQ
            SUB 'T5' COMPENSATABLE;
            SUB 'T6' COMPENSATABLE;
            SUB 'T8' PIVOT;
          END
          SUB 'T7' RETRIABLE;
        END
      END
      SUB 'T3' RETRIABLE;
    END
  END
END 'Fig3'
)";

// A width-16 parallel saga: Start, sixteen branches, End.
std::string ParallelSaga() {
  std::string spec = "SAGA 'Fanout'\n  STEP 'Start' FIRST;\n";
  std::string all;
  for (int i = 1; i <= 16; ++i) {
    std::string step = "B" + std::to_string(i);
    spec += "  STEP '" + step + "' AFTER 'Start';\n";
    all += (i > 1 ? ", '" : "'") + step + "'";
  }
  spec += "  STEP 'End' AFTER " + all + ";\nEND 'Fanout'\n";
  return spec;
}

/// Compiles `spec` and checks every non-trivial exit and transition
/// condition of every registered process; returns how many there were.
int ExpectAllConditionsTyped(const std::string& spec) {
  wf::DefinitionStore store;
  Result<exo::FmtmOutput> out = exo::CompileSpec(spec, &store);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) return 0;
  int conditions = 0;
  for (const std::string& name : out->processes) {
    Result<const wf::ProcessDefinition*> def = store.FindProcess(name);
    EXPECT_TRUE(def.ok()) << name;
    if (!def.ok()) continue;
    const wf::NavigationPlan& plan = (*def)->plan();
    const std::vector<wf::Activity>& acts = (*def)->activities();
    for (uint32_t a = 0; a < plan.activity_count(); ++a) {
      if (plan.activity(a).trivial_exit) continue;
      ++conditions;
      EXPECT_GE(plan.activity(a).exit_vm, 0)
          << name << ": exit condition of " << acts[a].name << ": "
          << acts[a].exit_condition.source();
    }
    const std::vector<wf::ControlConnector>& control =
        (*def)->control_connectors();
    for (uint32_t c = 0; c < control.size(); ++c) {
      const wf::NavigationPlan::ConnectorInfo& ci = plan.connector(c);
      if (ci.trivial || ci.is_otherwise) continue;
      ++conditions;
      EXPECT_GE(ci.cond_vm, 0)
          << name << ": " << control[c].from << " -> " << control[c].to
          << ": " << control[c].condition.source();
    }
  }
  return conditions;
}

TEST(TypedConditionsTest, TripSagaConditionsAllTyped) {
  EXPECT_GT(ExpectAllConditionsTyped(kTripSaga), 0);
}

TEST(TypedConditionsTest, Figure3ConditionsAllTyped) {
  EXPECT_GT(ExpectAllConditionsTyped(kFigure3), 0);
}

TEST(TypedConditionsTest, ParallelSagaConditionsAllTyped) {
  EXPECT_GT(ExpectAllConditionsTyped(ParallelSaga()), 0);
}

}  // namespace
}  // namespace exotica
