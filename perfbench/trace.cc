#include "trace.h"

#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>

namespace perfbench {

using exotica::Result;
using exotica::Status;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kStart: return "wfrt.StartProcess";
    case Layer::kRun: return "wfrt.Run";
    case Layer::kRecover: return "wfrt.Recover";
    case Layer::kBatch: return "wfrt.RunBatch";
    case Layer::kAppend: return "wfjournal.Append";
    case Layer::kFlush: return "wfjournal.Flush";
    case Layer::kVisit: return "wfjournal.Visit";
    case Layer::kReplay: return "wfrt.replay";
    case Layer::kSubTxn: return "atm.Run";
    case Layer::kCompensate: return "atm.Compensate";
    case Layer::kCount: break;
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Spans of one thread. States outlive their threads (the fleet starts
// fresh worker threads for every batch) so Collect can read them after
// the workers are joined.
struct Tracer::ThreadState {
  uint64_t id_base = 0;
  uint64_t next = 0;
  std::vector<uint64_t> open;  // ids of the spans open on this thread
  std::vector<Span> spans;
};

namespace {

std::mutex& RegistryMutex() {
  static std::mutex mu;
  return mu;
}

std::deque<std::unique_ptr<Tracer::ThreadState>>& Registry() {
  static std::deque<std::unique_ptr<Tracer::ThreadState>> states;
  return states;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Begin(uint32_t txn, uint64_t parent) {
  if (!enabled_) return;
  txn_.store(txn, std::memory_order_relaxed);
  default_parent_.store(parent, std::memory_order_relaxed);
  active_.store(true, std::memory_order_relaxed);
}

Tracer::ThreadState* Tracer::Local() {
  thread_local ThreadState* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    auto state = std::make_unique<ThreadState>();
    state->id_base = static_cast<uint64_t>(Registry().size() + 1) << 40;
    local = state.get();
    Registry().push_back(std::move(state));
  }
  return local;
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::vector<Span> all;
  for (const auto& state : Registry()) {
    all.insert(all.end(), state->spans.begin(), state->spans.end());
  }
  return all;
}

bool Tracer::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,txn,layer,start_ns,end_ns\n");
  for (const Span& s : Collect()) {
    std::fprintf(f, "%llu,%llu,%u,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.txn,
                 LayerName(s.layer), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Layer layer) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.active()) return;
  state_ = tracer.Local();
  span_.layer = layer;
  span_.txn = tracer.txn();
  span_.id = state_->id_base | ++state_->next;
  span_.parent =
      state_->open.empty() ? tracer.default_parent() : state_->open.back();
  state_->open.push_back(span_.id);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (state_ == nullptr) return;
  span_.end_ns = NowNs();
  state_->open.pop_back();
  state_->spans.push_back(span_);
}

Status TimedJournal::Append(exotica::wfjournal::Record record) {
  ScopedSpan span(Layer::kAppend);
  ++appends_;
  return inner_->Append(std::move(record));
}

Status TimedJournal::Flush() {
  ScopedSpan span(Layer::kFlush);
  ++flushes_;
  return inner_->Flush();
}

Status TimedJournal::Visit(const RecordVisitor& visitor) const {
  ScopedSpan span(Layer::kVisit);
  return inner_->Visit([this, &visitor](const exotica::wfjournal::Record& r) {
    ScopedSpan replay(Layer::kReplay);
    ++replayed_;
    return visitor(r);
  });
}

Script*& CurrentScript() {
  static Script* current = nullptr;
  return current;
}

Result<bool> TimedRunner::Run(const std::string& name) {
  return Call(name, /*compensation=*/false);
}

Result<bool> TimedRunner::Compensate(const std::string& name) {
  return Call(name, /*compensation=*/true);
}

Result<bool> TimedRunner::Call(const std::string& name, bool compensation) {
  Result<bool> committed = [&] {
    ScopedSpan span(compensation ? Layer::kCompensate : Layer::kSubTxn);
    return compensation ? inner_->Compensate(name) : inner_->Run(name);
  }();
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (compensation) compensations_.fetch_add(1, std::memory_order_relaxed);
  if (!committed.ok() || !*committed) return committed;
  (compensation ? compensation_commits_ : commits_)
      .fetch_add(1, std::memory_order_relaxed);
  if (Script* script = CurrentScript()) {
    auto it = index_->find(name);
    if (it != index_->end()) {
      (compensation ? script->compensated : script->executed)
          .push_back(it->second);
    }
  }
  return committed;
}

TimedRunner::Counts TimedRunner::counts() const {
  Counts c;
  c.calls = calls_.load(std::memory_order_relaxed);
  c.commits = commits_.load(std::memory_order_relaxed);
  c.compensations = compensations_.load(std::memory_order_relaxed);
  c.compensation_commits =
      compensation_commits_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace perfbench
