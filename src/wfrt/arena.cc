#include "wfrt/arena.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "wf/process.h"

namespace exotica::wfrt {

Result<InstanceArena> InstanceArena::Build(
    const wf::ProcessDefinition& definition, const data::TypeRegistry& types) {
  // Containers of the same type must share one Layout object: every
  // instance spun up from this arena bumps the layout refcounts of all
  // its containers, and one hot, shared layout beats forty cold ones.
  std::unordered_map<std::string, data::Container> protos;
  auto make = [&](const std::string& type) -> Result<data::Container> {
    auto it = protos.find(type);
    if (it == protos.end()) {
      EXO_ASSIGN_OR_RETURN(data::Container proto,
                           data::Container::Create(types, type));
      it = protos.emplace(type, std::move(proto)).first;
    }
    return it->second;
  };

  InstanceArena arena;
  EXO_ASSIGN_OR_RETURN(arena.input_, make(definition.input_type()));
  EXO_ASSIGN_OR_RETURN(arena.output_, make(definition.output_type()));

  const wf::NavigationPlan& plan = definition.plan();
  const std::vector<wf::Activity>& acts = definition.activities();
  uint32_t n = plan.activity_count();
  arena.inputs_.reserve(n);
  arena.outputs_.reserve(n);
  for (uint32_t aid = 0; aid < n; ++aid) {
    EXO_ASSIGN_OR_RETURN(data::Container in, make(acts[aid].input_type));
    EXO_ASSIGN_OR_RETURN(data::Container out, make(acts[aid].output_type));
    arena.inputs_.push_back(std::move(in));
    arena.outputs_.push_back(std::move(out));
  }

  // Preformat the hot block: all planes zero (kWaiting states, no
  // enqueued bits, attempt/failures 0) except the connector-eval planes,
  // which start at -1 (not yet evaluated).
  const wf::HotLayout& hl = plan.hot();
  arena.hot_.assign(hl.size, 0);
  std::fill(arena.hot_.begin() + hl.in_eval_base,
            arena.hot_.begin() + hl.in_eval_base + plan.in_eval_total(),
            static_cast<uint8_t>(-1));
  std::fill(arena.hot_.begin() + hl.out_eval_base,
            arena.hot_.begin() + hl.out_eval_base + plan.out_eval_total(),
            static_cast<uint8_t>(-1));
  return arena;
}

}  // namespace exotica::wfrt
