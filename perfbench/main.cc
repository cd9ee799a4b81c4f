// End-to-end benchmark of the paper's workloads in the engine's default
// configuration (every EngineOptions default, audit on, a FileJournal
// attached), with each workflow transaction checked against the native
// atm executor on the same seeded outcome schedule.
//
//   perfbench_e2e --workload <travel_saga|flex_fig3|fleet_parallel_saga|
//                             crash_recover>
//                 --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//                 [--reference audit_off|journal_off] [--engines <n>]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; --trace 0 reports the end-to-end metrics and
// --trace 1 the per-layer ones. --reference and --engines change one
// engine setting to measure a README reference figure; the benchmark never
// passes them. See README.md for what each metric means.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "atm/flex.h"
#include "atm/saga.h"
#include "atm/subtxn.h"
#include "exotica/fmtm.h"
#include "exotica/programs.h"
#include "fdl/import.h"
#include "trace.h"
#include "txn/multidb.h"
#include "wfjournal/journal.h"
#include "wfrt/engine.h"
#include "wfrt/fleet.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using exotica::Result;
using exotica::Status;
namespace atm = exotica::atm;
namespace data = exotica::data;
namespace exo = exotica::exo;
namespace txn = exotica::txn;
namespace wf = exotica::wf;
namespace wfjournal = exotica::wfjournal;
namespace wfrt = exotica::wfrt;

constexpr int kSample = 64;      // traced runs keep spans of 1 in kSample
constexpr int kRoundSample = 32; // ... and of 1 in kRoundSample recoveries
constexpr int kBlock = 8;        // plans per seeded schedule block
constexpr int kFleetBatch = 256;  // roots per RunBatch call
constexpr int kFanoutWidth = 16;
constexpr int kSharedKeys = 4;   // keys per site the fleet's bodies share
constexpr double kFleetCommitFailureRate = 0.004;
constexpr uint32_t kRoundTxnBase = 1u << 30;  // trace ids of recovery rounds
constexpr int64_t kRecoveryPeriodNs = 400'000'000;  // between recovery rounds
constexpr int64_t kSetupPeriodNs = 1'000'000'000;   // between timed set-ups

// --- the paper's transaction models, in the FMTM spec language ------------

const char* kTravelSpec = R"(
SAGA 'Travel'
  STEP 'Pay';
  STEP 'Flight';
  STEP 'Hotel';
  STEP 'Car';
END 'Travel'
)";

const char* kFig3Spec = R"(
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

// prefix + number, appended in place (GCC 12 misreports "B" + to_string).
std::string Numbered(const char* prefix, int i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

std::string FanoutSpec() {
  std::string spec = "SAGA 'Fanout'\n  STEP 'Start' FIRST;\n";
  std::string all;
  for (int i = 1; i <= kFanoutWidth; ++i) {
    spec += "  STEP '" + Numbered("B", i) + "' AFTER 'Start';\n";
    all += (i > 1 ? ", '" : "'") + Numbered("B", i) + "'";
  }
  spec += "  STEP 'End' AFTER " + all + ";\nEND 'Fanout'\n";
  return spec;
}

enum class Shape { kLinearSaga, kParallelSaga, kFlex };
enum ModelId { kTravel = 0, kFig3 = 1, kFanout = 2 };

struct ModelDef {
  Shape shape;
  std::string spec;
  std::vector<std::pair<std::string, std::string>> subs;  // name, site
};

ModelDef DefOf(ModelId id) {
  switch (id) {
    case kTravel:
      return {Shape::kLinearSaga, kTravelSpec,
              {{"Pay", "bank"}, {"Flight", "airline"}, {"Hotel", "resort"},
               {"Car", "resort"}}};
    case kFig3: {
      ModelDef def{Shape::kFlex, kFig3Spec, {}};
      for (int i = 1; i <= 8; ++i) {
        def.subs.emplace_back(Numbered("T", i), i % 2 ? "east" : "west");
      }
      return def;
    }
    case kFanout: {
      ModelDef def{Shape::kParallelSaga, FanoutSpec(), {{"Start", "s0"}}};
      for (int i = 1; i <= kFanoutWidth; ++i) {
        def.subs.emplace_back(Numbered("B", i), Numbered("s", i));
      }
      def.subs.emplace_back("End", "s0");
      return def;
    }
  }
  return {};
}

// --- seeded outcome schedules ---------------------------------------------

/// One planned transaction: which subtransactions refuse, how often, and
/// (flex) the path the schedule implies.
struct Plan {
  int model = 0;
  std::vector<std::pair<int, int>> refusals;  // (sub index, count)
  std::vector<int> path;                      // flex: expected effective path
};

struct Model {
  ModelId id;
  Shape shape;
  exo::FmtmOutput compiled;
  std::vector<int> steps;     // sub indexes in spec order
  std::vector<Plan> block;    // kBlock plans in fixed proportions
};

// --- per-run accounting ---------------------------------------------------

struct Counters {
  uint64_t instances = 0, activities = 0, connectors = 0, dead_paths = 0,
           audit = 0, appends = 0, flushes = 0, calls = 0, compensations = 0,
           stolen = 0, steals_failed = 0;
  void Add(const Counters& after, const Counters& before) {
    instances += after.instances - before.instances;
    activities += after.activities - before.activities;
    connectors += after.connectors - before.connectors;
    dead_paths += after.dead_paths - before.dead_paths;
    audit += after.audit - before.audit;
    appends += after.appends - before.appends;
    flushes += after.flushes - before.flushes;
    calls += after.calls - before.calls;
    compensations += after.compensations - before.compensations;
    stolen += after.stolen - before.stolen;
    steals_failed += after.steals_failed - before.steals_failed;
  }
};

struct Totals {
  uint64_t attempted = 0, failed = 0;
  bool correct = true;
  int diagnostics = 0;
  std::vector<double> wf_us, native_us, recover_ms, batch_per_engine_imbalance;
  std::vector<double> sampled_us, unsampled_us;
  double wf_busy_s = 0;
  uint64_t wf_txns = 0, native_txns = 0, timed_txns = 0;
  Counters counters;  // over workflow transactions only
  uint64_t site_commits = 0, site_aborts = 0, lock_waits = 0, wal_records = 0;
  uint64_t journal_bytes = 0, journal_txns = 0;
  uint64_t replayed = 0, retained = 0, batches = 0;
  std::vector<double> setup_s, compile_ms, import_ms;
  uint64_t fdl_bytes = 0;

  void Fail(const std::string& what) {
    ++failed;
    if (diagnostics++ < 5) std::fprintf(stderr, "failed: %s\n", what.c_str());
  }
  void Wrong(const std::string& what) {
    correct = false;
    if (diagnostics++ < 5) std::fprintf(stderr, "wrong: %s\n", what.c_str());
  }
};

// --- compiled models (set-up that survives engine generations) ------------

struct Compiled {
  wf::DefinitionStore store;
  std::vector<Model> models;
  std::vector<std::string> names;  // subtransaction name table
  std::vector<std::string> sites;  // site of each subtransaction
  std::unordered_map<std::string, int> index;
};

struct CompileTimes {
  double compile_ms = 0, import_ms = 0;
  uint64_t fdl_bytes = 0;
};

Result<std::unique_ptr<Compiled>> Compile(const std::vector<ModelId>& ids,
                                          CompileTimes* times) {
  auto c = std::make_unique<Compiled>();
  for (ModelId id : ids) {
    ModelDef def = DefOf(id);
    int64_t t0 = NowNs();
    Result<exo::FmtmOutput> out = exo::CompileSpec(def.spec, &c->store);
    int64_t t1 = NowNs();
    if (!out.ok()) return out.status();
    // The import stage again, on its own, into a scratch store.
    wf::DefinitionStore scratch;
    Result<std::vector<std::string>> imported =
        exotica::fdl::ImportFdl(out->fdl, &scratch);
    int64_t t2 = NowNs();
    if (!imported.ok()) return imported.status();
    times->compile_ms += (t1 - t0) / 1e6;
    times->import_ms += (t2 - t1) / 1e6;
    times->fdl_bytes += out->fdl.size();

    Model m{id, def.shape, std::move(*out), {}, {}};
    for (const auto& [name, site] : def.subs) {
      m.steps.push_back(static_cast<int>(c->names.size()));
      c->index[name] = static_cast<int>(c->names.size());
      c->names.push_back(name);
      c->sites.push_back(site);
    }
    c->models.push_back(std::move(m));
  }
  if (c->names.size() > static_cast<size_t>(Script::kMaxSubs)) {
    return Status::InvalidArgument("more subtransactions than Script holds");
  }
  // Schedule blocks: fixed proportions, shuffled per block by the seed.
  for (size_t mi = 0; mi < c->models.size(); ++mi) {
    Model& m = c->models[mi];
    auto sub = [&](const char* name) { return c->index.at(name); };
    auto plan = [&](std::vector<std::pair<int, int>> refusals,
                    std::vector<const char*> path) {
      Plan p{static_cast<int>(mi), std::move(refusals), {}};
      for (const char* n : path) p.path.push_back(sub(n));
      m.block.push_back(std::move(p));
    };
    switch (m.id) {
      case kTravel:  // a quarter: the hotel refuses, compensation runs
        for (int i = 0; i < 6; ++i) plan({}, {});
        for (int i = 0; i < 2; ++i) plan({{sub("Hotel"), 1}}, {});
        break;
      case kFig3: {
        std::vector<const char*> p1{"T1", "T2", "T4", "T5", "T6", "T8"};
        std::vector<const char*> p2{"T1", "T2", "T4", "T7"};
        std::vector<const char*> p3{"T1", "T2", "T3"};
        for (int i = 0; i < 3; ++i) plan({}, p1);
        plan({{sub("T8"), 1}}, p2);
        plan({{sub("T5"), 1}, {sub("T7"), 1}}, p2);
        plan({{sub("T6"), 1}}, p2);
        plan({{sub("T4"), 1}}, p3);
        plan({{sub("T4"), 1}, {sub("T3"), 2}}, p3);
        break;
      }
      case kFanout:
        for (int i = 0; i < 6; ++i) plan({}, {});
        plan({{sub("B7"), 1}}, {});
        plan({{sub("B12"), 1}}, {});
        break;
    }
  }
  return c;
}

// --- one engine generation: sites, bindings, journal, engine or fleet -----

/// An engine never releases finished instances and site WALs never shrink,
/// so a long run replaces its stack after a fixed number of transactions.
/// Each generation is built and retired outside the timed region.
struct Generation {
  txn::MultiDatabase mdb;
  atm::MultiDbRunner base{&mdb};
  std::unique_ptr<TimedRunner> runner;
  wfrt::ProgramRegistry programs;
  std::vector<std::string> shared_keys;
  std::atomic<uint64_t> spread{0};
  std::vector<std::string> paths;
  std::vector<std::unique_ptr<wfjournal::FileJournal>> files;
  std::vector<std::unique_ptr<TimedJournal>> journals;
  std::unique_ptr<wfrt::Engine> engine;
  std::unique_ptr<wfrt::EngineFleet> fleet;
  std::vector<uint64_t> ids_seen;  // fleet: per engine, last wf-N counted
};

// Forward body: writes the transaction's serial, then refuses if the
// script says so. Without a script (the fleet), writes one of a small
// shared key set, so concurrent engines sometimes wait for a site lock.
atm::SubTxnBody Body(int sub, const std::string& key, Generation* g,
                     bool compensation) {
  return [sub, key, g, compensation](txn::Transaction& t) -> Status {
    Script* script = CurrentScript();
    if (script == nullptr) {
      uint64_t k = g->spread.fetch_add(1, std::memory_order_relaxed);
      return t.Put(g->shared_keys[k % g->shared_keys.size()],
                   data::Value(int64_t{compensation ? 0 : 1}));
    }
    if (compensation) return t.Put(key, data::Value(-script->serial));
    EXO_RETURN_NOT_OK(t.Put(key, data::Value(script->serial)));
    if (script->refusals[sub] > 0) {
      --script->refusals[sub];
      return Status::Aborted("scripted refusal");
    }
    return Status::OK();
  };
}

Status OpenJournals(Generation* g) {
  g->files.clear();
  g->journals.clear();
  for (const std::string& path : g->paths) {
    EXO_ASSIGN_OR_RETURN(auto file, wfjournal::FileJournal::Open(path));
    g->journals.push_back(std::make_unique<TimedJournal>(file.get()));
    g->files.push_back(std::move(file));
  }
  return Status::OK();
}

/// How a generation's engines are configured. The benchmark itself always
/// runs the defaults; the other settings exist only to measure README
/// reference figures (--reference).
struct EngineSetup {
  wfrt::EngineOptions options;  // every default: audit on, ...
  bool journal = true;          // a FileJournal per engine
  int fleet_engines = 0;        // 0 = one engine, no fleet
};

Status StartEngine(const Compiled& c, const EngineSetup& setup,
                   Generation* g) {
  g->engine =
      std::make_unique<wfrt::Engine>(&c.store, &g->programs, setup.options);
  if (!setup.journal) return Status::OK();
  return g->engine->AttachJournal(g->journals[0].get());
}

Result<std::unique_ptr<Generation>> NewGeneration(const Compiled& c,
                                                  const fs::path& dir,
                                                  const EngineSetup& setup,
                                                  double failure_rate,
                                                  uint64_t seed) {
  auto g = std::make_unique<Generation>();
  g->runner = std::make_unique<TimedRunner>(&g->base, &c.index);
  for (size_t i = 0; i < c.names.size(); ++i) {
    const std::string& site = c.sites[i];
    if (!g->mdb.HasSite(site)) {
      EXO_RETURN_NOT_OK(g->mdb.AddSite(site));
      EXO_ASSIGN_OR_RETURN(txn::Site * s, g->mdb.site(site));
      s->SetCommitFailureRate(failure_rate, seed * 1009 + i);
    }
    const std::string& name = c.names[i];
    EXO_RETURN_NOT_OK(g->base.Register(
        {name, site, Body(static_cast<int>(i), name, g.get(), false),
         Body(static_cast<int>(i), name, g.get(), true)}));
  }
  for (int k = 0; k < kSharedKeys; ++k) {
    g->shared_keys.push_back("shared" + std::to_string(k));
  }
  for (const Model& m : c.models) {
    if (m.compiled.saga) {
      EXO_RETURN_NOT_OK(exo::BindSagaPrograms(*m.compiled.saga, c.store,
                                              g->runner.get(), &g->programs));
    } else {
      EXO_RETURN_NOT_OK(exo::BindFlexPrograms(*m.compiled.flex, c.store,
                                              g->runner.get(), &g->programs));
    }
  }
  fs::remove_all(dir);
  fs::create_directories(dir);
  int journals = !setup.journal ? 0 : std::max(setup.fleet_engines, 1);
  for (int e = 0; e < journals; ++e) {
    g->paths.push_back((dir / ("journal.e" + std::to_string(e))).string());
  }
  EXO_RETURN_NOT_OK(OpenJournals(g.get()));
  if (setup.fleet_engines > 0) {
    g->fleet = std::make_unique<wfrt::EngineFleet>(
        &c.store, &g->programs, setup.fleet_engines, setup.options);
    std::vector<wfjournal::Journal*> shards;
    for (auto& j : g->journals) shards.push_back(j.get());
    if (setup.journal) EXO_RETURN_NOT_OK(g->fleet->AttachJournals(shards));
  } else {
    EXO_RETURN_NOT_OK(StartEngine(c, setup, g.get()));
  }
  return g;
}

std::vector<wfrt::Engine*> EnginesOf(Generation& g) {
  std::vector<wfrt::Engine*> engines;
  if (g.fleet) {
    for (int e = 0; e < g.fleet->size(); ++e) engines.push_back(g.fleet->engine(e));
  } else {
    engines.push_back(g.engine.get());
  }
  return engines;
}

Counters Snap(Generation& g) {
  Counters c;
  for (wfrt::Engine* e : EnginesOf(g)) {
    const wfrt::EngineStats& s = e->stats();
    c.instances += s.instances_started;
    c.activities += s.activities_executed;
    c.connectors += s.connectors_evaluated;
    c.dead_paths += s.dead_path_terminations;
    c.stolen += s.instances_stolen;
    c.steals_failed += s.steals_failed;
    c.audit += e->audit().events().size();
  }
  for (auto& j : g.journals) {
    c.appends += j->appends();
    c.flushes += j->flushes();
  }
  TimedRunner::Counts r = g.runner->counts();
  c.calls = r.calls;
  c.compensations = r.compensations;
  return c;
}

/// Folds a generation's substrate and journal totals into the run.
void Retire(Generation& g, Totals* totals) {
  for (auto& j : g.journals) (void)j->Flush();
  txn::SiteStats s = g.mdb.AggregateStats();
  totals->site_commits += s.commits;
  totals->site_aborts += s.aborts;
  uint64_t wal = 0;
  for (const std::string& name : g.mdb.SiteNames()) {
    Result<txn::Site*> site = g.mdb.site(name);
    if (!site.ok()) continue;
    totals->lock_waits += (*site)->locks().stats().waits;
    wal += (*site)->wal().size();
  }
  totals->wal_records = std::max(totals->wal_records, wal);
  for (const std::string& path : g.paths) {
    std::error_code ec;
    uint64_t size = fs::file_size(path, ec);
    if (!ec) totals->journal_bytes += size;
  }
  for (wfrt::Engine* e : EnginesOf(g)) {
    totals->retained = std::max<uint64_t>(totals->retained,
                                          e->instance_order().size());
  }
}

// --- outcome checks (computed outside the engine) --------------------------

std::set<int> SetOf(const std::vector<int>& v) { return {v.begin(), v.end()}; }

Script MakeScript(const Plan& plan, int64_t serial) {
  Script s;
  s.serial = serial;
  for (const auto& [sub, count] : plan.refusals) {
    s.refusals[sub] = static_cast<int8_t>(count);
  }
  return s;
}

struct Observed {
  bool committed = false;
  std::vector<int> executed, compensated;  // commits, in order
};

/// What the native executor did on `plan`.
Result<Observed> RunNative(const Compiled& c, const Model& m, Generation& g,
                           Script* script) {
  Observed o;
  auto ids = [&](const std::vector<std::string>& names) {
    std::vector<int> out;
    for (const std::string& n : names) out.push_back(c.index.at(n));
    return out;
  };
  CurrentScript() = script;
  if (m.compiled.saga) {
    Result<atm::SagaOutcome> r =
        atm::SagaExecutor(g.runner.get()).Execute(*m.compiled.saga);
    CurrentScript() = nullptr;
    if (!r.ok()) return r.status();
    o.committed = r->committed;
    o.executed = ids(r->executed);
    o.compensated = ids(r->compensated);
  } else {
    Result<atm::FlexOutcome> r =
        atm::FlexExecutor(g.runner.get()).Execute(*m.compiled.flex);
    CurrentScript() = nullptr;
    if (!r.ok()) return r.status();
    o.committed = r->committed;
    o.executed = ids(r->effective);
  }
  return o;
}

/// Effective set: forward commits not undone by a compensation commit.
std::set<int> Effective(const Observed& o) {
  std::multiset<int> left(o.executed.begin(), o.executed.end());
  for (int c : o.compensated) {
    auto it = left.find(c);
    if (it != left.end()) left.erase(it);
  }
  return {left.begin(), left.end()};
}

/// Checks a workflow outcome against the schedule and the native executor.
/// `native` is null for a parallel saga (the native executor stops at the
/// first refusal while the workflow runs every sibling branch, so only the
/// committed flag and the generalized guarantee are compared).
std::string CheckOutcome(const Compiled& c, const Plan& plan,
                         const Observed& wf, const Observed& native) {
  const Model& m = c.models[static_cast<size_t>(plan.model)];
  bool expect_commit = true;
  std::vector<int> expect_exec = m.steps;
  switch (m.shape) {
    case Shape::kLinearSaga: {
      for (size_t i = 0; i < m.steps.size(); ++i) {
        bool refused = false;
        for (const auto& [sub, n] : plan.refusals) refused |= sub == m.steps[i];
        if (refused) {
          expect_commit = false;
          expect_exec.assign(m.steps.begin(), m.steps.begin() + i);
          break;
        }
      }
      if (wf.committed != expect_commit || native.committed != expect_commit) {
        return "committed flag differs from the schedule";
      }
      if (SetOf(wf.executed) != SetOf(expect_exec) ||
          SetOf(native.executed) != SetOf(expect_exec)) {
        return "executed set differs";
      }
      std::vector<int> expect_comp =
          expect_commit ? std::vector<int>{} : expect_exec;
      if (SetOf(wf.compensated) != SetOf(expect_comp) ||
          SetOf(native.compensated) != SetOf(expect_comp)) {
        return "compensated set differs";
      }
      return "";
    }
    case Shape::kParallelSaga: {
      expect_commit = plan.refusals.empty();
      if (wf.committed != expect_commit || native.committed != expect_commit) {
        return "committed flag differs from the schedule";
      }
      for (const Observed* o : {&wf, &native}) {
        if (expect_commit ? (SetOf(o->executed) != SetOf(m.steps) ||
                             !o->compensated.empty())
                          : (SetOf(o->compensated) != SetOf(o->executed) ||
                             SetOf(o->executed).count(m.steps.back()) > 0)) {
          return "generalized saga guarantee violated";
        }
      }
      return "";
    }
    case Shape::kFlex: {
      if (!wf.committed || !native.committed) return "flex did not commit";
      std::set<int> path = SetOf(plan.path);
      if (Effective(wf) != path) return "workflow took another path";
      if (SetOf(native.executed) != path) return "native took another path";
      return "";
    }
  }
  return "";
}

/// Site state shows T1..Tn or T1..Tj;Cj..C1: every step of the saga holds
/// this transaction's serial if it committed, and none does if it aborted.
std::string CheckSagaState(const Compiled& c, const Model& m, Generation& g,
                           int64_t serial, bool committed) {
  for (int sub : m.steps) {
    Result<txn::Site*> site = g.mdb.site(c.sites[static_cast<size_t>(sub)]);
    if (!site.ok()) return site.status().ToString();
    Result<data::Value> v =
        (*site)->ReadCommitted(c.names[static_cast<size_t>(sub)]);
    bool holds = v.ok() && v->is_long() && v->as_long() == serial;
    if (holds != committed) {
      return "site state breaks the saga guarantee at " +
             c.names[static_cast<size_t>(sub)];
    }
  }
  return "";
}

Result<bool> CommittedOutput(wfrt::Engine& engine, const std::string& id) {
  if (!engine.IsFinished(id)) {
    return Status::FailedPrecondition("instance " + id + " did not finish");
  }
  EXO_ASSIGN_OR_RETURN(data::Container out, engine.OutputOf(id));
  EXO_ASSIGN_OR_RETURN(data::Value rc, out.Get("RC"));
  return rc.as_long() == 0;
}

// --- the benchmark run -----------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path out = ".bench_out";
  // README reference figures only; the benchmark passes neither.
  std::string reference;  // audit_off | journal_off; empty = default
  int engines = 0;        // fleet size override; 0 = half the CPUs, <= 4
};

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t i = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, i > 0 ? i - 1 : 0)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

class Bench {
 public:
  Bench(const Args& args, const fs::path& dir)
      : args_(args), dir_(dir), rng_(args.seed) {}

  int Main();

 private:
  struct Workload {
    std::vector<ModelId> models;
    int fleet_engines = 0;       // 0 = one engine
    int generation = 0;          // transactions (fleet: batches) per generation
    int history = 0, in_flight = 0;  // per recovery round
    bool recovery_loop = false;  // crash_recover: the loop is recovery rounds
  };

  Status Setup(const Workload& w, bool keep);
  const Plan& NextPlan();
  Status ClosedLoopPair(Generation& g, const Plan& plan, bool timed);
  Status FleetPair(Generation& g);
  Status RecoveryRound(const Workload& w, int round, bool timed);
  void Report(const Workload& w);

  const Args& args_;
  fs::path dir_;
  std::mt19937_64 rng_;
  EngineSetup setup_;
  std::unique_ptr<Compiled> compiled_;
  std::unique_ptr<Generation> gen_;
  Totals t_;
  std::vector<Plan> schedule_;
  size_t next_plan_ = 0;
  int64_t serial_ = 0;
  uint32_t wf_no_ = 0;
  int gen_no_ = 0;
};

const Plan& Bench::NextPlan() {
  if (next_plan_ == schedule_.size()) {
    schedule_.clear();
    for (const Model& m : compiled_->models) {
      schedule_.insert(schedule_.end(), m.block.begin(), m.block.end());
    }
    std::shuffle(schedule_.begin(), schedule_.end(), rng_);
    next_plan_ = 0;
  }
  return schedule_[next_plan_++];
}

/// One full set-up: compile the specs, then build sites, bindings, journal
/// and engine or fleet. The first one is the run's stack; later ones are
/// timed and dropped, spread over the run so that setup_s samples the same
/// machine conditions as the other metrics.
Status Bench::Setup(const Workload& w, bool keep) {
  int64_t t0 = NowNs();
  CompileTimes times;
  EXO_ASSIGN_OR_RETURN(auto compiled, Compile(w.models, &times));
  EXO_ASSIGN_OR_RETURN(
      auto gen, NewGeneration(*compiled, dir_ / (keep ? "gen" : "setup"),
                              setup_,
                              w.fleet_engines > 0 ? kFleetCommitFailureRate : 0,
                              args_.seed));
  t_.setup_s.push_back((NowNs() - t0) / 1e9);
  t_.compile_ms.push_back(times.compile_ms);
  t_.import_ms.push_back(times.import_ms);
  t_.fdl_bytes = times.fdl_bytes;
  if (keep) {
    compiled_ = std::move(compiled);
    gen_ = std::move(gen);
  } else {
    gen.reset();  // a generation refers to the store it was built on
  }
  return Status::OK();
}

/// Runs one planned transaction through the engine and through the native
/// executor, and checks both. Only `timed` pairs (the run's measured loop)
/// enter the latency, count and substrate totals.
Status Bench::ClosedLoopPair(Generation& g, const Plan& plan, bool timed) {
  const Compiled& c = *compiled_;
  const Model& m = c.models[static_cast<size_t>(plan.model)];
  Script wf_script = MakeScript(plan, ++serial_);
  Script native_script = MakeScript(plan, ++serial_);
  Tracer& tracer = Tracer::Get();
  ++t_.attempted;

  // Each side's site state is checked as soon as it finishes, before the
  // other side overwrites the same keys.
  std::string wrong;
  auto check_state = [&](int64_t serial, bool committed) {
    if (wrong.empty() && m.shape != Shape::kFlex) {
      wrong = CheckSagaState(c, m, g, serial, committed);
    }
  };
  auto run_workflow = [&]() -> Result<bool> {
    uint32_t no = timed ? ++wf_no_ : 0;
    bool sampled = timed && tracer.enabled() && no % kSample == 0;
    Counters before = Snap(g);
    if (sampled) tracer.Begin(no);
    CurrentScript() = &wf_script;
    int64_t t0 = NowNs();
    Result<std::string> id = [&] {
      ScopedSpan span(Layer::kStart);
      return g.engine->StartProcess(m.compiled.root_process);
    }();
    Status st = id.status();
    if (id.ok()) {
      ScopedSpan span(Layer::kRun);
      st = g.engine->Run();
    }
    int64_t t1 = NowNs();
    CurrentScript() = nullptr;
    tracer.End();
    if (!st.ok()) return st;
    double us = (t1 - t0) / 1e3;
    if (timed) {
      t_.wf_us.push_back(us);
      t_.wf_busy_s += us / 1e6;
      ++t_.timed_txns;
      (sampled ? t_.sampled_us : t_.unsampled_us).push_back(us);
      ++t_.wf_txns;
      t_.counters.Add(Snap(g), before);
    }
    Result<bool> committed = CommittedOutput(*g.engine, *id);
    if (committed.ok()) check_state(wf_script.serial, *committed);
    return committed;
  };
  auto run_native = [&]() -> Result<Observed> {
    int64_t t0 = NowNs();
    Result<Observed> o = RunNative(c, m, g, &native_script);
    if (timed) {
      t_.native_us.push_back((NowNs() - t0) / 1e3);
      ++t_.native_txns;
    }
    if (o.ok()) check_state(native_script.serial, o->committed);
    return o;
  };

  // Alternate which side goes first so neither always sees a warm cache.
  Result<bool> committed = Status::OK();
  Result<Observed> native = Status::OK();
  if (serial_ % 4 == 0) {
    native = run_native();
    committed = run_workflow();
  } else {
    committed = run_workflow();
    native = run_native();
  }
  if (!committed.ok() || !native.ok()) {
    t_.Fail(!committed.ok() ? committed.status().ToString()
                            : native.status().ToString());
    return Status::OK();
  }
  Observed wf{*committed, wf_script.executed, wf_script.compensated};
  if (wrong.empty()) wrong = CheckOutcome(c, plan, wf, *native);
  if (!wrong.empty()) t_.Wrong(m.compiled.root_process + ": " + wrong);
  return Status::OK();
}

/// One RunBatch of kFleetBatch roots on the fleet, then the same number of
/// native sagas on as many threads. Finished roots are counted here, from
/// each instance, not from BatchResult (whose counters are lifetime totals
/// on a reused fleet).
Status Bench::FleetPair(Generation& g) {
  const Compiled& c = *compiled_;
  const Model& m = c.models[0];
  Tracer& tracer = Tracer::Get();
  const uint64_t width = m.steps.size();
  std::vector<wfrt::Engine*> engines = EnginesOf(g);
  t_.attempted += kFleetBatch;

  uint32_t no = static_cast<uint32_t>(++t_.batches);
  bool sampled = tracer.enabled() && no % kSample == 0;
  Counters before = Snap(g);
  TimedRunner::Counts r0 = g.runner->counts();
  int64_t t0 = NowNs();
  Result<wfrt::EngineFleet::BatchResult> batch = Status::OK();
  {
    if (sampled) tracer.Begin(no);
    ScopedSpan span(Layer::kBatch);
    if (sampled) tracer.Begin(no, span.id());
    batch = g.fleet->RunBatch(m.compiled.root_process, kFleetBatch);
  }
  tracer.End();
  int64_t t1 = NowNs();
  TimedRunner::Counts r1 = g.runner->counts();
  if (!batch.ok()) {
    t_.Fail(batch.status().ToString());
    return Status::OK();
  }
  for (const std::string& e : batch->errors) {
    if (!e.empty()) t_.Fail(e);
  }
  double us = (t1 - t0) / 1e3;
  t_.wf_us.push_back(us);
  t_.wf_busy_s += us / 1e6;
  (sampled ? t_.sampled_us : t_.unsampled_us).push_back(us);
  t_.counters.Add(Snap(g), before);

  // Every instance created since the last batch, wherever it lives now.
  uint64_t finished = 0, committed = 0;
  std::vector<uint64_t> per_engine(engines.size(), 0);
  g.ids_seen.resize(engines.size(), 0);
  for (size_t e = 0; e < engines.size(); ++e) {
    uint64_t started = engines[e]->stats().instances_started;
    for (uint64_t n = g.ids_seen[e] + 1; n <= started; ++n) {
      std::string id = "e";
      id += std::to_string(e);
      id += ":wf-";
      id += std::to_string(n);
      for (size_t host = 0; host < engines.size(); ++host) {
        Result<const wfrt::ProcessInstance*> inst =
            engines[host]->FindInstance(id);
        if (!inst.ok() || (*inst)->detached) continue;
        if ((*inst)->is_child()) break;
        Result<bool> ok = CommittedOutput(*engines[host], id);
        if (!ok.ok()) {
          t_.Fail(ok.status().ToString());
          break;
        }
        ++finished;
        ++per_engine[host];
        committed += *ok ? 1 : 0;
        break;
      }
    }
    g.ids_seen[e] = started;
  }
  t_.wf_txns += finished;
  t_.timed_txns += finished;
  if (finished != kFleetBatch) {
    t_.Fail("batch finished " + std::to_string(finished) + " of " +
            std::to_string(kFleetBatch) + " roots");
  }
  uint64_t net = (r1.commits - r0.commits) -
                 (r1.compensation_commits - r0.compensation_commits);
  if (net != width * committed) {
    t_.Wrong("fleet: forward minus compensation commits " +
             std::to_string(net) + " != " + std::to_string(width) + " x " +
             std::to_string(committed) + " committed roots");
  }
  double mean = static_cast<double>(finished) / engines.size();
  if (mean > 0) {
    t_.batch_per_engine_imbalance.push_back(
        *std::max_element(per_engine.begin(), per_engine.end()) / mean);
  }

  // The native baseline: the same batch on the same number of threads.
  TimedRunner::Counts n0 = g.runner->counts();
  std::vector<uint64_t> native_committed(engines.size(), 0);
  std::vector<std::string> errors(engines.size());
  int64_t t2 = NowNs();
  {
    std::vector<std::thread> workers;
    for (size_t w = 0; w < engines.size(); ++w) {
      workers.emplace_back([&, w] {
        atm::SagaExecutor executor(g.runner.get());
        for (size_t i = w; i < kFleetBatch; i += engines.size()) {
          Result<atm::SagaOutcome> o = executor.Execute(*m.compiled.saga);
          if (!o.ok()) {
            errors[w] = o.status().ToString();
            return;
          }
          native_committed[w] += o->committed ? 1 : 0;
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  t_.native_us.push_back((NowNs() - t2) / 1e3);
  t_.native_txns += kFleetBatch;
  TimedRunner::Counts n1 = g.runner->counts();
  uint64_t native_total = 0;
  for (size_t w = 0; w < engines.size(); ++w) {
    if (!errors[w].empty()) t_.Fail("native: " + errors[w]);
    native_total += native_committed[w];
  }
  uint64_t native_net = (n1.commits - n0.commits) -
                        (n1.compensation_commits - n0.compensation_commits);
  if (native_net != width * native_total) {
    t_.Wrong("native fleet baseline breaks commit conservation");
  }
  return Status::OK();
}

/// Builds a journal history of completed transactions, leaves `in_flight`
/// more suspended part-way (each advanced by a few navigation steps), drops
/// the engine and its journal objects as a crash would, and times Recover
/// on a fresh engine over the same files. The recovered instances are then
/// resumed one at a time under their own scripts and must finish with the
/// outcome the native executor reaches on the same schedule.
Status Bench::RecoveryRound(const Workload& w, int round, bool timed) {
  const Compiled& c = *compiled_;
  EXO_ASSIGN_OR_RETURN(auto g, NewGeneration(c, dir_ / "recover", {}, 0,
                                             args_.seed + 7919 * round));
  for (int i = 0; i < w.history; ++i) {
    EXO_RETURN_NOT_OK(ClosedLoopPair(*g, NextPlan(), timed));
  }
  struct InFlight {
    Plan plan;
    Script script;
    std::string id;
    Result<Observed> native = Status::OK();
  };
  std::vector<InFlight> flying(static_cast<size_t>(w.in_flight));
  Counters before_flight = Snap(*g);
  for (InFlight& f : flying) {
    f.plan = NextPlan();
    const Model& m = c.models[static_cast<size_t>(f.plan.model)];
    f.script = MakeScript(f.plan, ++serial_);
    Script native_script = MakeScript(f.plan, ++serial_);
    f.native = RunNative(c, m, *g, &native_script);
    t_.native_txns += timed ? 1 : 0;
    ++t_.attempted;
    CurrentScript() = &f.script;
    Result<std::string> id = g->engine->StartProcess(m.compiled.root_process);
    Status st = id.status();
    if (id.ok()) {
      f.id = *id;
      st = g->engine->RunSlice(1 + static_cast<int>(rng_() % 3), nullptr);
    }
    if (st.ok()) st = g->engine->SuspendInstance(f.id);
    CurrentScript() = nullptr;
    if (!st.ok()) t_.Fail(st.ToString());
  }
  if (timed) t_.counters.Add(Snap(*g), before_flight);
  // Crash: the engine and its journal objects go; the files stay.
  g->engine.reset();
  EXO_RETURN_NOT_OK(OpenJournals(g.get()));
  EXO_RETURN_NOT_OK(StartEngine(c, {}, g.get()));
  Tracer& tracer = Tracer::Get();
  bool sampled = tracer.enabled() && round % kRoundSample == 0;
  if (sampled) tracer.Begin(kRoundTxnBase + static_cast<uint32_t>(round));
  int64_t t0 = NowNs();
  Status recovered = [&] {
    ScopedSpan span(Layer::kRecover);
    return g->engine->Recover();
  }();
  int64_t t1 = NowNs();
  tracer.End();
  if (!recovered.ok()) return recovered;
  t_.recover_ms.push_back((t1 - t0) / 1e6);
  t_.replayed += g->journals[0]->replayed();

  for (InFlight& f : flying) {
    if (f.id.empty()) continue;
    CurrentScript() = &f.script;
    Status st = g->engine->ResumeSuspended(f.id);
    if (st.ok()) st = g->engine->Run();
    CurrentScript() = nullptr;
    Result<bool> committed =
        st.ok() ? CommittedOutput(*g->engine, f.id) : Result<bool>(st);
    if (!committed.ok() || !f.native.ok()) {
      t_.Fail(!committed.ok() ? committed.status().ToString()
                              : f.native.status().ToString());
      continue;
    }
    t_.wf_txns += timed ? 1 : 0;
    Observed wf{*committed, f.script.executed, f.script.compensated};
    std::string wrong = CheckOutcome(c, f.plan, wf, *f.native);
    if (!wrong.empty()) t_.Wrong("recovered instance " + f.id + ": " + wrong);
  }
  if (timed) {
    t_.journal_txns += static_cast<uint64_t>(w.history + w.in_flight);
    Retire(*g, &t_);
  }
  return Status::OK();
}

int Bench::Main() {
  std::map<std::string, Workload> workloads;
  // Half the CPUs, at most four: a fleet that claims every CPU of a shared
  // machine measures the neighbours more than the scheduler.
  int fleet = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency() / 2, 1u, 4u));
  workloads["travel_saga"] = {{kTravel}, 0, 5000, 300, 40, false};
  workloads["flex_fig3"] = {{kFig3}, 0, 2000, 150, 40, false};
  workloads["fleet_parallel_saga"] = {{kFanout}, fleet, 8, 60, 20, false};
  workloads["crash_recover"] = {{kTravel, kFig3}, 0, 0, 800, 160, true};
  auto found = workloads.find(args_.workload);
  if (found == workloads.end()) {
    std::fprintf(stderr, "unknown workload %s\n", args_.workload.c_str());
    return 2;
  }
  const Workload& w = found->second;
  if (args_.trace) Tracer::Get().Enable();
  setup_.fleet_engines = w.fleet_engines;
  if (args_.reference == "audit_off") {
    setup_.options.audit_enabled = false;
  } else if (args_.reference == "journal_off") {
    setup_.journal = false;
  } else if (!args_.reference.empty()) {
    std::fprintf(stderr, "unknown reference %s\n", args_.reference.c_str());
    return 2;
  }
  if (args_.engines > 0 && w.fleet_engines > 0) {
    setup_.fleet_engines = args_.engines;
  }
  if (!setup_.journal && w.recovery_loop) {
    std::fprintf(stderr, "%s needs the journal\n", args_.workload.c_str());
    return 2;
  }

  Status st = Setup(w, /*keep=*/true);
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }
  int64_t deadline = NowNs() + static_cast<int64_t>(args_.seconds * 1e9);
  if (w.recovery_loop) {
    gen_.reset();
    int64_t next_setup = NowNs() + kSetupPeriodNs;
    for (int round = 0; st.ok() && (round == 0 || NowNs() < deadline);
         ++round) {
      st = RecoveryRound(w, round, /*timed=*/true);
      if (st.ok() && NowNs() >= next_setup) {
        st = Setup(w, /*keep=*/false);
        next_setup = NowNs() + kSetupPeriodNs;
      }
    }
  } else {
    // Recovery of this workload's own transactions on a fixed history,
    // spread over the run so recover_ms samples all of it. The fleet's
    // roots are replayed on one engine under scripted outcomes.
    int64_t next_round = NowNs();
    int64_t next_setup = NowNs() + kSetupPeriodNs;
    int round = 0;
    int in_gen = 0;
    auto retire = [&] {
      Retire(*gen_, &t_);
      t_.journal_txns += static_cast<uint64_t>(in_gen) *
                         (w.fleet_engines > 0 ? kFleetBatch : 1);
      gen_.reset();
    };
    while (st.ok() && NowNs() < deadline) {
      if (setup_.journal && NowNs() >= next_round) {
        st = RecoveryRound(w, round++, /*timed=*/false);
        next_round = NowNs() + kRecoveryPeriodNs;
        continue;
      }
      if (NowNs() >= next_setup) {
        st = Setup(w, /*keep=*/false);
        next_setup = NowNs() + kSetupPeriodNs;
        continue;
      }
      if (in_gen == w.generation) {
        retire();
        auto next = NewGeneration(*compiled_, dir_ / "gen", setup_,
                                  w.fleet_engines > 0 ? kFleetCommitFailureRate
                                                      : 0,
                                  args_.seed + ++gen_no_);
        if (!next.ok()) {
          st = next.status();
          break;
        }
        gen_ = std::move(*next);
        in_gen = 0;
      }
      // Whole blocks of the schedule, so every run attempts the same mix.
      for (int i = 0; st.ok() && i < kBlock; ++i, ++in_gen) {
        st = w.fleet_engines > 0 ? FleetPair(*gen_)
                                 : ClosedLoopPair(*gen_, NextPlan(), true);
      }
    }
    if (st.ok()) retire();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.ToString().c_str());
    return 1;
  }
  Report(w);
  return 0;
}

// --- reporting -----------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

void Bench::Report(const Workload& w) {
  std::vector<Metric> out;
  auto add = [&](const std::string& name, const char* unit, double v) {
    out.push_back({name, unit, v});
  };
  double txns = std::max<double>(1, static_cast<double>(t_.wf_txns));
  double all_txns = std::max<double>(
      1, static_cast<double>(t_.wf_txns + t_.native_txns));
  if (!args_.trace) {
    double p50 = Median(t_.wf_us);
    double native_p50 = Median(t_.native_us);
    add("txn_p50_us", "us", p50);
    add("txn_per_s", "1/s",
        t_.wf_busy_s > 0 ? t_.timed_txns / t_.wf_busy_s : 0);
    add("detour_us", "us", p50 - native_p50);
    add("recover_ms", "ms", Median(t_.recover_ms));
    add("journal_bytes_per_txn", "bytes",
        static_cast<double>(t_.journal_bytes) /
            std::max<double>(1, static_cast<double>(t_.journal_txns)));
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    add("peak_rss_mb", "MB", usage.ru_maxrss / 1024.0);
    add("setup_s", "s", Median(t_.setup_s));
  } else {
    std::vector<Span> spans = Tracer::Get().Collect();
    std::unordered_map<uint64_t, size_t> by_id;
    for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      auto p = by_id.find(s.parent);
      if (p != by_id.end()) child_ns[p->second] += s.end_ns - s.start_ns;
    }
    double sum[static_cast<int>(Layer::kCount)] = {};
    double self[static_cast<int>(Layer::kCount)] = {};
    std::set<uint32_t> txn_ids, round_ids;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      int l = static_cast<int>(s.layer);
      double ns = static_cast<double>(s.end_ns - s.start_ns);
      bool in_round = s.txn >= kRoundTxnBase;
      (in_round ? round_ids : txn_ids).insert(s.txn);
      // Transaction-level layers count only outside recovery rounds; the
      // recovery layers only inside them.
      bool recovery_layer = s.layer == Layer::kRecover ||
                            s.layer == Layer::kVisit ||
                            s.layer == Layer::kReplay;
      if (in_round != recovery_layer) continue;
      sum[l] += ns;
      self[l] += ns - static_cast<double>(child_ns[i]);
    }
    auto per = [](double total, size_t n, double scale) {
      return n > 0 ? total / static_cast<double>(n) / scale : 0.0;
    };
    // Traced transactions: single-engine txns, or fleet batches of roots.
    size_t traced = txn_ids.size() * (w.fleet_engines > 0 ? kFleetBatch : 1);
    size_t rounds = round_ids.size();
    auto L = [](Layer l) { return static_cast<int>(l); };
    add("exotica.compile_ms", "ms", Median(t_.compile_ms));
    add("fdl.bytes", "bytes", static_cast<double>(t_.fdl_bytes));
    add("fdl.import_ms", "ms", Median(t_.import_ms));
    add("wfrt.start_us", "us", per(sum[L(Layer::kStart)], traced, 1e3));
    add("wfrt.self_us", "us", per(self[L(Layer::kRun)], traced, 1e3));
    add("wfrt.instances_per_txn", "count", t_.counters.instances / txns);
    add("wfrt.activities_per_txn", "count", t_.counters.activities / txns);
    add("wfrt.connectors_per_txn", "count", t_.counters.connectors / txns);
    add("wfrt.dead_paths_per_txn", "count", t_.counters.dead_paths / txns);
    add("wfrt.audit_events_per_txn", "count", t_.counters.audit / txns);
    add("wfrt.retained_instances", "count", static_cast<double>(t_.retained));
    add("wfrt.replay_ms", "ms", per(sum[L(Layer::kReplay)], rounds, 1e6));
    add("wfjournal.append_us", "us", per(sum[L(Layer::kAppend)], traced, 1e3));
    add("wfjournal.flush_us", "us", per(sum[L(Layer::kFlush)], traced, 1e3));
    add("wfjournal.records_per_txn", "count", t_.counters.appends / txns);
    add("wfjournal.flushes_per_txn", "count", t_.counters.flushes / txns);
    add("wfjournal.visit_ms", "ms", per(self[L(Layer::kVisit)], rounds, 1e6));
    add("wfjournal.records_replayed", "count",
        t_.recover_ms.empty() ? 0 : t_.replayed / t_.recover_ms.size());
    add("atm.subtxn_us", "us",
        per(sum[L(Layer::kSubTxn)] + sum[L(Layer::kCompensate)], traced, 1e3));
    add("atm.calls_per_txn", "count", t_.counters.calls / txns);
    add("atm.compensations_per_txn", "count", t_.counters.compensations / txns);
    add("txn.commits_per_txn", "count", t_.site_commits / all_txns);
    add("txn.aborts_per_txn", "count", t_.site_aborts / all_txns);
    add("txn.lock_waits_per_txn", "count", t_.lock_waits / all_txns);
    add("txn.wal_records", "count", static_cast<double>(t_.wal_records));
    double batches = std::max<double>(1, static_cast<double>(t_.batches));
    add("fleet.batch_ms", "ms",
        t_.batches > 0 ? t_.wf_busy_s * 1e3 / batches : 0);
    add("fleet.steals_per_batch", "count",
        t_.batches > 0 ? t_.counters.stolen / batches : 0);
    double tries = static_cast<double>(t_.counters.stolen +
                                       t_.counters.steals_failed);
    add("fleet.steal_yield", "ratio",
        tries > 0 ? t_.counters.stolen / tries : 0);
    double imbalance = 0;
    for (double x : t_.batch_per_engine_imbalance) imbalance += x;
    add("fleet.engine_imbalance", "ratio",
        t_.batch_per_engine_imbalance.empty()
            ? 0
            : imbalance / t_.batch_per_engine_imbalance.size());
    add("trace.overhead_us", "us",
        Median(t_.sampled_us) - Median(t_.unsampled_us));
    fs::path csv = args_.out / ("trace-" + args_.workload + "-seed" +
                                std::to_string(args_.seed) + ".csv");
    if (!Tracer::Get().WriteCsv(csv.string())) {
      std::fprintf(stderr, "could not write %s\n", csv.c_str());
    }
  }
  std::printf(
      "info: {\"workload\": \"%s\", \"seed\": %llu, \"num_cpus\": %u, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"wf_txns\": %llu, "
      "\"native_txns\": %llu, \"recoveries\": %zu, \"txn_p99_us\": %.6g, "
      "\"native_p50_us\": %.6g}\n",
      args_.workload.c_str(), static_cast<unsigned long long>(args_.seed),
      std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
      static_cast<unsigned long long>(t_.wf_txns),
      static_cast<unsigned long long>(t_.native_txns), t_.recover_ms.size(),
      Percentile(t_.wf_us, 0.99), Median(t_.native_us));
  std::string json = "{\"correct\": ";
  json += t_.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t_.attempted);
  json += ", \"failed\": " + std::to_string(t_.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", out[i].value);
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--reference") {
      args->reference = value;
    } else if (flag == "--engines") {
      args->engines = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>] "
                 "[--reference audit_off|journal_off] [--engines <n>]\n",
                 argv[0]);
    return 2;
  }
  std::filesystem::path dir =
      args.out / ("run-" + args.workload + "-" + std::to_string(getpid()));
  int rc = perfbench::Bench(args, dir).Main();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return rc;
}
