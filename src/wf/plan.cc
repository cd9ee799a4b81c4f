#include "wf/plan.h"

#include <algorithm>
#include <deque>
#include <map>
#include <string>

#include "expr/compile.h"
#include "wf/process.h"

namespace exotica::wf {

namespace {

/// Caches one shape container per output type while compiling a
/// definition's conditions; activities routinely share types.
class ShapeCache {
 public:
  explicit ShapeCache(const data::TypeRegistry& types) : types_(types) {}

  /// The shape container for `type_name`, or null if the type can't be
  /// instantiated (unknown/recursive — validation would have rejected it,
  /// so this only trips on unvalidated definitions).
  const data::Container* Shape(const std::string& type_name) {
    auto it = shapes_.find(type_name);
    if (it == shapes_.end()) {
      Result<data::Container> c = data::Container::Create(types_, type_name);
      it = shapes_
               .emplace(type_name, c.ok() ? std::make_unique<data::Container>(
                                                std::move(c).value())
                                          : nullptr)
               .first;
    }
    return it->second.get();
  }

 private:
  const data::TypeRegistry& types_;
  std::map<std::string, std::unique_ptr<data::Container>> shapes_;
};

/// Compiles one condition against `shape`, appending the program to
/// `programs`. Returns the program index, or -1 when the condition has no
/// typed program (the runtime tree-walks it instead).
int32_t CompileCondition(const expr::Condition& cond,
                         const data::Container* shape,
                         std::vector<expr::CompiledCondition>* programs) {
  if (shape == nullptr) return -1;
  Result<expr::CompiledCondition> prog =
      expr::ConditionCompiler::Compile(cond.root(), *shape);
  if (!prog.ok()) return -1;
  programs->push_back(std::move(prog).value());
  return static_cast<int32_t>(programs->size() - 1);
}

}  // namespace

NavigationPlan NavigationPlan::Compile(const ProcessDefinition& def,
                                       const data::TypeRegistry* types) {
  NavigationPlan plan;
  const std::vector<Activity>& acts = def.activities();
  const std::vector<ControlConnector>& control = def.control_connectors();
  const std::vector<DataConnector>& data = def.data_connectors();
  const uint32_t n = static_cast<uint32_t>(acts.size());

  plan.activities_.resize(n);
  for (uint32_t id = 0; id < n; ++id) {
    const Activity& a = acts[id];
    ActivityInfo& info = plan.activities_[id];
    info.manual = a.start_mode == StartMode::kManual;
    info.block = a.is_process();
    info.or_join = a.join == JoinKind::kOr;
    info.trivial_exit = a.exit_condition.is_trivial();
  }

  // Control connectors: resolve endpoints to ids and record each
  // connector's slot within its source/target adjacency list. Adjacency
  // lists are built in connector insertion order, matching the
  // definition's own indexes.
  plan.connectors_.resize(control.size());
  for (uint32_t c = 0; c < control.size(); ++c) {
    auto from = def.ActivityIndex(control[c].from);
    auto to = def.ActivityIndex(control[c].to);
    // Endpoints were validated at AddControlConnector time.
    ConnectorInfo& info = plan.connectors_[c];
    info.from = static_cast<uint32_t>(*from);
    info.to = static_cast<uint32_t>(*to);
    info.is_otherwise = control[c].is_otherwise;
    info.trivial = control[c].condition.is_trivial();
    ActivityInfo& src = plan.activities_[info.from];
    ActivityInfo& dst = plan.activities_[info.to];
    info.out_slot = static_cast<uint32_t>(src.out_control.size());
    info.in_slot = static_cast<uint32_t>(dst.in_control.size());
    src.out_control.push_back(c);
    dst.in_control.push_back(c);
    if (!info.trivial && !info.is_otherwise) src.has_cond_out = true;
  }
  for (ActivityInfo& info : plan.activities_) {
    info.join_fan_in = static_cast<uint32_t>(info.in_control.size());
  }

  // Lower non-trivial conditions to typed programs. Exit conditions read
  // the activity's own output container; transition conditions read the
  // *source* activity's output container. Anything the compiler can't
  // bind or type keeps its -1 and tree-walks at runtime.
  if (types != nullptr) {
    ShapeCache shapes(*types);
    for (uint32_t id = 0; id < n; ++id) {
      if (plan.activities_[id].trivial_exit) continue;
      plan.activities_[id].exit_vm =
          CompileCondition(acts[id].exit_condition,
                           shapes.Shape(acts[id].output_type),
                           &plan.vm_programs_);
    }
    for (uint32_t c = 0; c < control.size(); ++c) {
      ConnectorInfo& info = plan.connectors_[c];
      if (info.trivial || info.is_otherwise) continue;
      info.cond_vm =
          CompileCondition(control[c].condition,
                           shapes.Shape(acts[info.from].output_type),
                           &plan.vm_programs_);
    }
  }

  // Flat eval-slot offsets: connector evaluations live in two
  // instance-wide arrays (one alloc each per instance, not two per
  // activity); each activity owns the contiguous range starting at its
  // base.
  for (ActivityInfo& info : plan.activities_) {
    info.in_eval_base = plan.in_eval_total_;
    info.out_eval_base = plan.out_eval_total_;
    plan.in_eval_total_ += static_cast<uint32_t>(info.in_control.size());
    plan.out_eval_total_ += static_cast<uint32_t>(info.out_control.size());
  }
  plan.hot_ =
      HotLayout::Compute(n, plan.in_eval_total_, plan.out_eval_total_);

  // Data connectors: per-source fan-out lists plus resolved targets.
  plan.data_.resize(data.size());
  for (uint32_t d = 0; d < data.size(); ++d) {
    const DataConnector& dc = data[d];
    if (dc.from.is_activity()) {
      auto from = def.ActivityIndex(dc.from.activity);
      plan.activities_[*from].out_data.push_back(d);
    } else {
      plan.input_data_.push_back(d);
    }
    if (dc.to.is_activity()) {
      auto to = def.ActivityIndex(dc.to.activity);
      plan.data_[d].to = static_cast<uint32_t>(*to);
    } else {
      plan.data_[d].to = kProcessOutput;
    }
  }

  // Start set: no incoming control, declaration order.
  for (uint32_t id = 0; id < n; ++id) {
    if (plan.activities_[id].in_control.empty()) plan.start_.push_back(id);
  }

  // Topological order: Kahn's algorithm visiting ids in declaration order,
  // byte-identical to ProcessDefinition::TopologicalOrder on a DAG.
  std::vector<uint32_t> indegree(n, 0);
  for (const ConnectorInfo& c : plan.connectors_) ++indegree[c.to];
  std::deque<uint32_t> frontier;
  for (uint32_t id = 0; id < n; ++id) {
    if (indegree[id] == 0) frontier.push_back(id);
  }
  while (!frontier.empty()) {
    uint32_t id = frontier.front();
    frontier.pop_front();
    plan.topo_.push_back(id);
    for (uint32_t c : plan.activities_[id].out_control) {
      uint32_t m = plan.connectors_[c].to;
      if (--indegree[m] == 0) frontier.push_back(m);
    }
  }
  // A cycle leaves topo_ short; registration validates acyclicity, so this
  // only happens for hand-built unvalidated definitions, which never reach
  // the navigator's recovery path (the only consumer of topo_).

  // Name-sorted id list: the iteration order of a name-keyed map.
  plan.by_name_.resize(n);
  for (uint32_t id = 0; id < n; ++id) plan.by_name_[id] = id;
  std::sort(plan.by_name_.begin(), plan.by_name_.end(),
            [&acts](uint32_t a, uint32_t b) {
              return acts[a].name < acts[b].name;
            });

  return plan;
}

}  // namespace exotica::wf
