// Golden bytes of the condition paths: the journal, audit and error
// output of conditioned navigation, pinned as literals. They were
// captured when the engine still carried several sweep executors and
// condition evaluators, all of which produced exactly these bytes, so
// they hold whichever evaluator — typed program or tree-walk — decides a
// condition today.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "wf/builder.h"
#include "wfjournal/journal.h"
#include "wfrt/engine.h"
#include "../testutil.h"

namespace exotica {
namespace {

using test::BindConstRc;
using test::DeclareDefaultProgram;
using wfjournal::MemoryJournal;

struct RunResult {
  std::vector<std::string> records;  ///< encoded journal stream
  std::vector<std::string> trace;    ///< compact audit trace
  wfrt::EngineStats stats;
};

class ConditionPathGoldenTest : public ::testing::Test {
 protected:
  /// A gated process whose condition reads a member that is never
  /// written: FLAG has no default, so "FLAG = 1" trips over a null read.
  ///
  ///       A --FLAG = 1--> B
  ///       A --OTHERWISE--> C
  void RegisterNullRead() {
    data::StructType gate("Gate");
    ASSERT_TRUE(gate.AddScalar("FLAG", data::ScalarType::kLong).ok());
    ASSERT_TRUE(store_.types().Register(std::move(gate)).ok());
    wf::ProgramDeclaration decl;
    decl.name = "gated";
    decl.output_type = "Gate";
    ASSERT_TRUE(store_.DeclareProgram(std::move(decl)).ok());
    ASSERT_TRUE(programs_
                    .Bind("gated",
                          [](const data::Container&, data::Container*,
                             const wfrt::ProgramContext&) -> Status {
                            return Status::OK();  // FLAG stays unset
                          })
                    .ok());
    ASSERT_TRUE(DeclareDefaultProgram(&store_, "plain").ok());
    ASSERT_TRUE(BindConstRc(&programs_, "plain", 0).ok());
    wf::ProcessBuilder b(&store_, "nullread");
    b.Program("A", "gated").Program("B", "plain").Program("C", "plain");
    b.Connect("A", "B", "FLAG = 1");
    b.Otherwise("A", "C");
    ASSERT_TRUE(b.Register().ok());
  }

  /// A diamond with conditioned, otherwise, and trivial connectors plus an
  /// OR-join, so one run exercises every connector kind and the dead-path
  /// (all-false) sweep:
  ///
  ///       A --RC=0--> B ----> D (OR-join)
  ///       A --OTHERWISE--> C -/
  void RegisterDiamond(const std::string& name, int64_t rc) {
    const std::string prog = name + "_prog";
    ASSERT_TRUE(DeclareDefaultProgram(&store_, prog).ok());
    ASSERT_TRUE(BindConstRc(&programs_, prog, rc).ok());
    wf::ProcessBuilder b(&store_, name);
    b.Program("A", prog).Program("B", prog).Program("C", prog);
    b.Program("D", prog).OrJoin();
    b.Connect("A", "B", "RC = 0");
    b.Otherwise("A", "C");
    b.Connect("B", "D");
    b.Connect("C", "D");
    ASSERT_TRUE(b.Register().ok());
  }

  RunResult RunOnce(const std::string& process,
                    wfrt::EngineOptions options = {}) {
    RunResult out;
    MemoryJournal journal;
    wfrt::Engine engine(&store_, &programs_, options);
    EXPECT_TRUE(engine.AttachJournal(&journal).ok());
    auto id = engine.RunToCompletion(process);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    if (id.ok()) out.trace = engine.audit().CompactTrace(*id, {});
    auto records = journal.ReadAll();
    EXPECT_TRUE(records.ok());
    for (const wfjournal::Record& r : *records) {
      out.records.push_back(r.Encode());
    }
    out.stats = engine.stats();
    return out;
  }

  /// Starts `process` and returns the navigation error Run() reports.
  std::string RunError(const std::string& process) {
    wfrt::Engine engine(&store_, &programs_);
    EXPECT_TRUE(engine.StartProcess(process).ok());
    Status st = engine.Run();
    EXPECT_FALSE(st.ok());
    return st.ToString();
  }

  wf::DefinitionStore store_;
  wfrt::ProgramRegistry programs_;
};

TEST_F(ConditionPathGoldenTest, NullReadErrorStringIsPinned) {
  RegisterNullRead();
  EXPECT_EQ(RunError("nullread"), "FailedPrecondition: transition condition A -> B in wf-1: "
            "condition references unset data: FLAG");
}

TEST_F(ConditionPathGoldenTest, TypeErrorMessageIsPinned) {
  ASSERT_TRUE(DeclareDefaultProgram(&store_, "ok").ok());
  ASSERT_TRUE(BindConstRc(&programs_, "ok", 0).ok());
  wf::ProcessBuilder b(&store_, "err");
  b.Program("A", "ok").Program("B", "ok");
  // Type error at evaluation time: RC is a long, "x" a string.
  b.Connect("A", "B", "RC < \"x\"");
  ASSERT_TRUE(b.Register().ok());
  EXPECT_EQ(RunError("err"), "InvalidArgument: transition condition A -> B in wf-1: "
            "ordering not defined for 0 and \"x\"");
}

TEST_F(ConditionPathGoldenTest, ConditionErrorIsFalseJournalIsPinned) {
  // With condition_error_is_false the null read demotes to "connector
  // false" and the otherwise path fires.
  RegisterNullRead();
  wfrt::EngineOptions options;
  options.condition_error_is_false = true;
  RunResult run = RunOnce("nullread", options);
  EXPECT_EQ(run.records, std::vector<std::string>({
                "0\t0\twf-1\t\t\t0\tv1:nullread\t",
                "1\t1\twf-1\tA\t\t0\t\t",
                "2\t2\twf-1\tA\t\t0\t1\t",
                "3\t3\twf-1\tA\t\t0\t\t",
                "4\t4\twf-1\tA\t\t0\t\t",
                "5\t7\twf-1\tA\tB\t0\t\t",
                "6\t7\twf-1\tA\tC\t1\t\t",
                "7\t6\twf-1\tB\t\t0\t\t",
                "8\t1\twf-1\tC\t\t0\t\t",
                "9\t2\twf-1\tC\t\t0\t1\t",
                "10\t3\twf-1\tC\t\t0\tRC=0\\n\t",
                "11\t4\twf-1\tC\t\t0\t\t",
                "12\t8\twf-1\t\t\t0\t\t",
            }));
  EXPECT_EQ(run.trace, std::vector<std::string>({
                "wf-1:instance-started",
                "A:ready",
                "A:started",
                "A:finished",
                "A:terminated",
                "A->B:false",
                "A->C:true",
                "B:dead",
                "C:ready",
                "C:started",
                "C:finished",
                "C:terminated",
                "wf-1:instance-finished",
            }));
  EXPECT_EQ(run.stats.connectors_evaluated, 2u);
}

TEST_F(ConditionPathGoldenTest, DiamondJournalMatchesGolden) {
  RegisterDiamond("top", 0);    // conditioned path fires, C dies
  RegisterDiamond("other", 1);  // otherwise path fires, B dies
  RunResult top = RunOnce("top");
  RunResult other = RunOnce("other");
  EXPECT_EQ(top.records, std::vector<std::string>({
                "0\t0\twf-1\t\t\t0\tv1:top\t",
                "1\t1\twf-1\tA\t\t0\t\t",
                "2\t2\twf-1\tA\t\t0\t1\t",
                "3\t3\twf-1\tA\t\t0\tRC=0\\n\t",
                "4\t4\twf-1\tA\t\t0\t\t",
                "5\t7\twf-1\tA\tB\t1\t\t",
                "6\t7\twf-1\tA\tC\t0\t\t",
                "7\t1\twf-1\tB\t\t0\t\t",
                "8\t6\twf-1\tC\t\t0\t\t",
                "9\t7\twf-1\tC\tD\t0\t\t",
                "10\t2\twf-1\tB\t\t0\t1\t",
                "11\t3\twf-1\tB\t\t0\tRC=0\\n\t",
                "12\t4\twf-1\tB\t\t0\t\t",
                "13\t7\twf-1\tB\tD\t1\t\t",
                "14\t1\twf-1\tD\t\t0\t\t",
                "15\t2\twf-1\tD\t\t0\t1\t",
                "16\t3\twf-1\tD\t\t0\tRC=0\\n\t",
                "17\t4\twf-1\tD\t\t0\t\t",
                "18\t8\twf-1\t\t\t0\t\t",
            }));
  EXPECT_EQ(top.trace, std::vector<std::string>({
                "wf-1:instance-started",
                "A:ready",
                "A:started",
                "A:finished",
                "A:terminated",
                "A->B:true",
                "A->C:false",
                "B:ready",
                "C:dead",
                "C->D:false",
                "B:started",
                "B:finished",
                "B:terminated",
                "B->D:true",
                "D:ready",
                "D:started",
                "D:finished",
                "D:terminated",
                "wf-1:instance-finished",
            }));
  EXPECT_EQ(other.records, std::vector<std::string>({
                "0\t0\twf-1\t\t\t0\tv1:other\t",
                "1\t1\twf-1\tA\t\t0\t\t",
                "2\t2\twf-1\tA\t\t0\t1\t",
                "3\t3\twf-1\tA\t\t0\tRC=1\\n\t",
                "4\t4\twf-1\tA\t\t0\t\t",
                "5\t7\twf-1\tA\tB\t0\t\t",
                "6\t7\twf-1\tA\tC\t1\t\t",
                "7\t6\twf-1\tB\t\t0\t\t",
                "8\t7\twf-1\tB\tD\t0\t\t",
                "9\t1\twf-1\tC\t\t0\t\t",
                "10\t2\twf-1\tC\t\t0\t1\t",
                "11\t3\twf-1\tC\t\t0\tRC=1\\n\t",
                "12\t4\twf-1\tC\t\t0\t\t",
                "13\t7\twf-1\tC\tD\t1\t\t",
                "14\t1\twf-1\tD\t\t0\t\t",
                "15\t2\twf-1\tD\t\t0\t1\t",
                "16\t3\twf-1\tD\t\t0\tRC=1\\n\t",
                "17\t4\twf-1\tD\t\t0\t\t",
                "18\t8\twf-1\t\t\t0\t\t",
            }));
  EXPECT_EQ(other.trace, std::vector<std::string>({
                "wf-1:instance-started",
                "A:ready",
                "A:started",
                "A:finished",
                "A:terminated",
                "A->B:false",
                "A->C:true",
                "B:dead",
                "B->D:false",
                "C:ready",
                "C:started",
                "C:finished",
                "C:terminated",
                "C->D:true",
                "D:ready",
                "D:started",
                "D:finished",
                "D:terminated",
                "wf-1:instance-finished",
            }));
}

}  // namespace
}  // namespace exotica
