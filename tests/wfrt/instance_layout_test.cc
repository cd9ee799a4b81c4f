// The one instance layout, pinned: the plan's HotLayout, and the journal
// record stream (order AND content), audit trace, and output of the Trip
// saga (compensation path) and the Figure 3 flexible transaction
// (alternative path) — block children, dead-path sweeps, OR-joins, and
// data connectors all in one stream. The golden digests and images were
// captured when a second, legacy layout still existed and produced the
// same bytes; the snapshot and detach/adopt round-trips pin the encoded
// images that recovery and migration are made of.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "atm/flex.h"
#include "atm/saga.h"
#include "atm/subtxn.h"
#include "exotica/flex_translate.h"
#include "exotica/programs.h"
#include "exotica/saga_translate.h"
#include "wf/builder.h"
#include "wfjournal/journal.h"
#include "wfrt/engine.h"
#include "../testutil.h"

namespace exotica {
namespace {

using test::BindConstRc;
using test::DeclareDefaultProgram;
using wfjournal::MemoryJournal;

// A runner that aborts a fixed set of subtransactions; enough to steer
// the saga into compensation and the flex spec onto its alternative path.
class AbortingRunner : public atm::SubTxnRunner {
 public:
  explicit AbortingRunner(std::set<std::string> aborts)
      : aborts_(std::move(aborts)) {}
  Result<bool> Run(const std::string& name) override {
    return aborts_.count(name) == 0;
  }
  Result<bool> Compensate(const std::string&) override { return true; }

 private:
  std::set<std::string> aborts_;
};

struct RunResult {
  std::vector<std::string> records;  ///< encoded journal stream
  std::vector<std::string> trace;    ///< compact audit trace
  std::string output;                ///< serialized instance output
  wfrt::EngineStats stats;
};

// FNV-1a over the strings, newline-separated: a compact pin for streams
// too long to spell out as literals.
uint64_t Digest(const std::vector<std::string>& lines) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& line : lines) {
    for (unsigned char c : line + "\n") {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// Runs `process` once against a fresh memory journal and returns every
// observable artifact.
RunResult RunOnce(const wf::DefinitionStore& store,
                  wfrt::ProgramRegistry* programs, const std::string& process) {
  RunResult out;
  MemoryJournal journal;
  wfrt::Engine engine(&store, programs);
  EXPECT_TRUE(engine.AttachJournal(&journal).ok());
  auto id = engine.RunToCompletion(process);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  if (id.ok()) {
    EXPECT_TRUE(engine.IsFinished(*id));
    out.trace = engine.audit().CompactTrace(*id, {});
    auto o = engine.OutputOf(*id);
    if (o.ok()) out.output = o->Serialize();
  }
  auto records = journal.ReadAll();
  EXPECT_TRUE(records.ok());
  for (const wfjournal::Record& r : *records) {
    out.records.push_back(r.Encode());
  }
  out.stats = engine.stats();
  return out;
}

class InstanceLayoutTest : public ::testing::Test {
 protected:
  // Trip saga with Hotel aborting: Flight commits then compensates —
  // block children plus the dead-path compensation chain.
  std::string SetupTripSaga() {
    atm::SagaSpec spec("Trip");
    spec.Then("Flight").Then("Hotel").Then("Car");
    auto t = exo::TranslateSaga(spec, &store_);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    runner_ = std::make_unique<AbortingRunner>(std::set<std::string>{"Hotel"});
    EXPECT_TRUE(
        exo::BindSagaPrograms(spec, store_, runner_.get(), &programs_).ok());
    return t->root_process;
  }

  // Figure 3 flexible transaction with T5 aborting: forces the
  // alternative path — preferences, OR-joins, contingency blocks.
  std::string SetupFigure3() {
    atm::FlexSpec flex = atm::MakeFigure3Spec();
    auto t = exo::TranslateFlex(flex, &store_);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    runner_ = std::make_unique<AbortingRunner>(std::set<std::string>{"T5"});
    EXPECT_TRUE(
        exo::BindFlexPrograms(flex, store_, runner_.get(), &programs_).ok());
    return t->root_process;
  }

  wf::DefinitionStore store_;
  wfrt::ProgramRegistry programs_;
  std::unique_ptr<AbortingRunner> runner_;
};

TEST_F(InstanceLayoutTest, TripSagaJournalMatchesGolden) {
  std::string process = SetupTripSaga();
  RunResult run = RunOnce(store_, &programs_, process);
  EXPECT_EQ(run.records.size(), 48u);
  EXPECT_EQ(Digest(run.records), 0x65133bef897366b8ull);
  EXPECT_EQ(run.trace.size(), 11u);
  EXPECT_EQ(Digest(run.trace), 0x797968068ff56b1cull);
  EXPECT_EQ(run.output, "RC=1\nCompensated=1\n");
  EXPECT_EQ(run.stats.activities_executed, 7u);
  EXPECT_EQ(run.stats.connectors_evaluated, 10u);
  EXPECT_EQ(run.stats.dead_path_terminations, 4u);
}

TEST_F(InstanceLayoutTest, Figure3JournalMatchesGolden) {
  std::string process = SetupFigure3();
  RunResult run = RunOnce(store_, &programs_, process);
  EXPECT_EQ(run.records.size(), 134u);
  EXPECT_EQ(Digest(run.records), 0xe4e93c7196f2b7eaull);
  EXPECT_EQ(run.trace.size(), 24u);
  EXPECT_EQ(Digest(run.trace), 0xd7c81f395ed08a3cull);
  EXPECT_EQ(run.output, "RC=0\nState_T1=1\nState_T5=0\nState_T6=0\n");
}

// A snapshot written mid-saga is the only state a crashed engine leaves
// behind; its image bytes are pinned, and a fresh engine recovers from it
// and finishes the saga.
TEST_F(InstanceLayoutTest, SnapshotRecoveryRoundTrip) {
  std::string process = SetupTripSaga();
  MemoryJournal journal;
  std::string id;
  {
    wfrt::Engine engine(&store_, &programs_);
    ASSERT_TRUE(engine.AttachJournal(&journal).ok());
    auto started = engine.StartProcess(process);
    ASSERT_TRUE(started.ok());
    id = *started;
    bool quiescent = false;
    ASSERT_TRUE(engine.RunSlice(5, &quiescent).ok());
    ASSERT_FALSE(engine.IsFinished(id));
    ASSERT_TRUE(engine.Checkpoint().ok());
    // The writer crashes here; the snapshot is the only surviving state.
  }
  auto records = journal.ReadAll();
  ASSERT_TRUE(records.ok());
  std::vector<std::string> snapshots;
  for (const wfjournal::Record& r : *records) {
    if (r.type == wfjournal::EventType::kSnapshot) {
      snapshots.push_back(r.Encode());
    }
  }
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].size(), 939u);
  EXPECT_EQ(Digest(snapshots), 0xa4f5ccd12fccfa34ull);

  wfrt::Engine reader(&store_, &programs_);
  ASSERT_TRUE(reader.AttachJournal(&journal).ok());
  ASSERT_TRUE(reader.Recover().ok());
  ASSERT_TRUE(reader.Run().ok());
  ASSERT_TRUE(reader.IsFinished(id));
  auto out = reader.OutputOf(id);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Serialize(), "RC=1\nCompensated=1\n");
}

// Detach after k steps, adopt on a second engine, finish there; the
// handoff images are pinned at every boundary.
TEST_F(InstanceLayoutTest, DetachAdoptRoundTrip) {
  ASSERT_TRUE(DeclareDefaultProgram(&store_, "ok").ok());
  ASSERT_TRUE(BindConstRc(&programs_, "ok", 7).ok());
  wf::ProcessBuilder b(&store_, "chain");
  std::string prev;
  for (int i = 1; i <= 6; ++i) {
    std::string act = "A" + std::to_string(i);
    b.Program(act, "ok");
    if (!prev.empty()) b.Connect(prev, act);
    prev = act;
  }
  b.MapToOutput(prev, {{"RC", "RC"}});
  ASSERT_TRUE(b.Register().ok());

  std::vector<std::string> payloads;
  for (int k = 1; k <= 5; k += 2) {
    SCOPED_TRACE("steal after " + std::to_string(k));
    wfrt::EngineOptions vo, to;
    vo.instance_id_prefix = "a:";
    to.instance_id_prefix = "b:";
    wfrt::Engine victim(&store_, &programs_, vo);
    wfrt::Engine thief(&store_, &programs_, to);

    auto id = victim.StartProcess("chain");
    ASSERT_TRUE(id.ok());
    bool quiescent = false;
    ASSERT_TRUE(victim.RunSlice(k, &quiescent).ok());
    auto detached = victim.Detach(*id);
    ASSERT_TRUE(detached.ok()) << detached.status().ToString();
    payloads.push_back(detached->EncodePayload());
    ASSERT_TRUE(thief.Adopt(*detached).ok());
    ASSERT_TRUE(thief.Run().ok());
    ASSERT_TRUE(thief.IsFinished(*id));
    auto out = thief.OutputOf(*id);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->Get("RC")->as_long(), 7);
  }
  EXPECT_EQ(payloads, std::vector<std::string>({
                "I\\ta:wf-1\\tchain\\t1\\t\\t\\nF\\t0000\\t0\\t\\nD\\t\\t\\nA\\t4\\t1\\t0\\t\\t\\t1\\t\\tRC=7\\\\n\\nA\\t1\\t0\\t0\\t\\t1\\t-\\t\\t\\nA\\t0\\t0\\t0\\t\\t-\\t-\\t\\t\\nA\\t0\\t0\\t0\\t\\t-\\t-\\t\\t\\nA\\t0\\t0\\t0\\t\\t-\\t-\\t\\t\\nA\\t0\\t0\\t0\\t\\t-\\t\\t\\t\\n\n",
                "I\\ta:wf-1\\tchain\\t1\\t\\t\\nF\\t0000\\t0\\t\\nD\\t\\t\\nA\\t4\\t1\\t0\\t\\t\\t1\\t\\tRC=7\\\\n\\nA\\t4\\t1\\t0\\t\\t1\\t1\\t\\tRC=7\\\\n\\nA\\t4\\t1\\t0\\t\\t1\\t1\\t\\tRC=7\\\\n\\nA\\t1\\t0\\t0\\t\\t1\\t-\\t\\t\\nA\\t0\\t0\\t0\\t\\t-\\t-\\t\\t\\nA\\t0\\t0\\t0\\t\\t-\\t\\t\\t\\n\n",
                "I\\ta:wf-1\\tchain\\t1\\t\\t\\nF\\t0000\\t0\\t\\nD\\t\\t\\nA\\t4\\t1\\t0\\t\\t\\t1\\t\\tRC=7\\\\n\\nA\\t4\\t1\\t0\\t\\t1\\t1\\t\\tRC=7\\\\n\\nA\\t4\\t1\\t0\\t\\t1\\t1\\t\\tRC=7\\\\n\\nA\\t4\\t1\\t0\\t\\t1\\t1\\t\\tRC=7\\\\n\\nA\\t4\\t1\\t0\\t\\t1\\t1\\t\\tRC=7\\\\n\\nA\\t1\\t0\\t0\\t\\t1\\t\\t\\t\\n\n",
            }));
}

// The hot block is exactly what the plan's HotLayout says it is, and the
// dense scans agree with the per-activity accessors.
TEST_F(InstanceLayoutTest, HotLayoutMatchesPlan) {
  std::string process = SetupTripSaga();
  auto def = store_.FindProcess(process);
  ASSERT_TRUE(def.ok());
  const wf::NavigationPlan& plan = (*def)->plan();
  const wf::HotLayout& hl = plan.hot();
  uint32_t n = plan.activity_count();
  EXPECT_EQ(hl.state_base, 0u);
  EXPECT_EQ(hl.enqueued_base, n);
  EXPECT_EQ(hl.attempt_base % 4, 0u);
  EXPECT_EQ(hl.failures_base, hl.attempt_base + 4 * n);
  EXPECT_EQ(hl.size, hl.failures_base + 4 * n);

  wfrt::Engine engine(&store_, &programs_);
  auto id = engine.RunToCompletion(process);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto inst = engine.FindInstance(*id);
  ASSERT_TRUE(inst.ok());
  EXPECT_EQ((*inst)->hot.size(), hl.size);
  size_t settled = (*inst)->CountInState(wf::ActivityState::kTerminated) +
                   (*inst)->CountInState(wf::ActivityState::kDead);
  EXPECT_EQ(settled, n);
  EXPECT_TRUE((*inst)->AllSettled());
}

}  // namespace
}  // namespace exotica
