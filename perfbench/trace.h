// Spans and layer decorators for the end-to-end benchmark.
//
// Spans are recorded from the benchmark's side of each module boundary:
// around the public engine and fleet calls the benchmark makes, and in
// two forwarding decorators the engine calls through — TimedJournal over
// wfjournal::Journal and TimedRunner over atm::SubTxnRunner. Spans stay in
// per-thread memory, carry their parent's id, and are written out once the
// traced run ends. The decorators are always in place; only span recording
// is switched by tracing, so a traced and an untraced run execute the same
// code apart from the clock reads.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "atm/subtxn.h"
#include "wfjournal/journal.h"

namespace perfbench {

enum class Layer : uint8_t {
  kStart,       // Engine::StartProcess
  kRun,         // Engine::Run
  kRecover,     // Engine::Recover
  kBatch,       // EngineFleet::RunBatch
  kAppend,      // Journal::Append
  kFlush,       // Journal::Flush
  kVisit,       // Journal::Visit
  kReplay,      // the engine's replay visitor, called from Visit
  kSubTxn,      // SubTxnRunner::Run
  kCompensate,  // SubTxnRunner::Compensate
  kCount,
};

const char* LayerName(Layer layer);

int64_t NowNs();

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t txn = 0;     // sampled transaction (or batch / round) number
  Layer layer = Layer::kCount;
};

/// \brief Process-wide span recorder. Recording is on only while a sampled
/// transaction runs (Begin/End), so memory stays bounded on long runs.
class Tracer {
 public:
  static Tracer& Get();

  /// Enables span recording for the whole run (--trace 1).
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Starts recording spans for transaction `txn`; spans on threads with
  /// no open span get `parent` as their parent. No-op when disabled.
  void Begin(uint32_t txn, uint64_t parent = 0);
  void End() { active_.store(false, std::memory_order_relaxed); }
  bool active() const { return active_.load(std::memory_order_relaxed); }
  uint32_t txn() const { return txn_.load(std::memory_order_relaxed); }

  /// Every span recorded so far, from every thread.
  std::vector<Span> Collect() const;

  /// Writes the spans as CSV (id,parent,txn,layer,start_ns,end_ns).
  bool WriteCsv(const std::string& path) const;

  struct ThreadState;
  ThreadState* Local();
  uint64_t default_parent() const {
    return default_parent_.load(std::memory_order_relaxed);
  }

 private:
  bool enabled_ = false;
  std::atomic<bool> active_{false};
  std::atomic<uint32_t> txn_{0};
  std::atomic<uint64_t> default_parent_{0};
};

/// \brief RAII span: records [construction, destruction) when the tracer
/// is active, and is a no-op otherwise.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer::ThreadState* state_ = nullptr;
  Span span_;
};

/// \brief Forwarding journal decorator: counts and times every call the
/// engine makes into its journal. One per journal, used by one engine
/// thread at a time.
class TimedJournal : public exotica::wfjournal::Journal {
 public:
  explicit TimedJournal(exotica::wfjournal::Journal* inner) : inner_(inner) {}

  exotica::Status Append(exotica::wfjournal::Record record) override;
  exotica::Status Flush() override;
  exotica::Result<std::vector<exotica::wfjournal::Record>> ReadAll()
      const override {
    return inner_->ReadAll();
  }
  exotica::Status Visit(const RecordVisitor& visitor) const override;
  uint64_t size() const override { return inner_->size(); }
  exotica::Status RotateSegment() override { return inner_->RotateSegment(); }
  exotica::Result<uint64_t> TruncateBefore(uint64_t seq) override {
    return inner_->TruncateBefore(seq);
  }
  uint64_t first_seq() const override { return inner_->first_seq(); }
  std::string active_path() const override { return inner_->active_path(); }

  uint64_t appends() const { return appends_; }
  uint64_t flushes() const { return flushes_; }
  uint64_t replayed() const { return replayed_; }

 private:
  exotica::wfjournal::Journal* inner_;
  uint64_t appends_ = 0;
  uint64_t flushes_ = 0;
  mutable uint64_t replayed_ = 0;
};

/// \brief The outcome script of one transaction: how often each
/// subtransaction refuses before it commits, and what actually committed.
/// Indexes are positions in the workload's subtransaction name table.
struct Script {
  static constexpr int kMaxSubs = 24;
  int64_t serial = 0;               // written into site keys by the bodies
  int8_t refusals[kMaxSubs] = {};   // remaining scripted refusals
  std::vector<int> executed;        // forward commits, in commit order
  std::vector<int> compensated;     // compensation commits, in order
};

/// \brief The script the single-threaded workloads' subtransactions
/// consult; null while the fleet runs (its sites refuse at random instead).
Script*& CurrentScript();

/// \brief Forwarding runner decorator: counts calls and commits with
/// atomics (the fleet calls it from every engine thread), times each call,
/// and records commits into the current script.
class TimedRunner : public exotica::atm::SubTxnRunner {
 public:
  TimedRunner(exotica::atm::SubTxnRunner* inner,
              const std::unordered_map<std::string, int>* index)
      : inner_(inner), index_(index) {}

  exotica::Result<bool> Run(const std::string& name) override;
  exotica::Result<bool> Compensate(const std::string& name) override;

  struct Counts {
    uint64_t calls = 0;
    uint64_t commits = 0;
    uint64_t compensations = 0;
    uint64_t compensation_commits = 0;
  };
  Counts counts() const;

 private:
  exotica::Result<bool> Call(const std::string& name, bool compensation);

  exotica::atm::SubTxnRunner* inner_;
  const std::unordered_map<std::string, int>* index_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> compensations_{0};
  std::atomic<uint64_t> compensation_commits_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
