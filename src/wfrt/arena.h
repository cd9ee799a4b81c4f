// Per-plan instance spin-up arena.
//
// The arena precomputes, once per process definition, everything a new
// instance starts from: the preformatted hot block (plan->hot() layout,
// eval planes at -1) and one container prototype per activity input and
// output. Starting (or adopting) an instance then reduces to one copy of
// the hot block plus a default-constructed cold sidecar; cold containers
// are copied from the prototypes on first touch, sharing their immutable
// layouts by refcount.
//
// Arenas are immutable after Build and hold no pointers into the engine,
// so a fleet shares one arena per definition across all of its engines:
// EngineFleet::PrepareArenas builds them single-threaded before workers
// launch and registers each via Engine::ShareArena. An engine outside a
// fleet still builds its own lazily on first use. The shared container
// layouts the arena hands out are also what the plan's compiled condition
// programs (expr/vm.h) resolve their member slots against — one layout
// per type, fixed at registration, read by every engine thread.

#ifndef EXOTICA_WFRT_ARENA_H_
#define EXOTICA_WFRT_ARENA_H_

#include <vector>

#include "common/result.h"
#include "data/container.h"
#include "data/types.h"
#include "wf/plan.h"

namespace exotica::wf {
class ProcessDefinition;
}  // namespace exotica::wf

namespace exotica::wfrt {

/// \brief Preformatted spin-up image for one ProcessDefinition.
class InstanceArena {
 public:
  /// Builds the image: the hot block plus one input/output container
  /// prototype per activity, instantiated from `types` (same-typed
  /// containers share one layout).
  static Result<InstanceArena> Build(const wf::ProcessDefinition& definition,
                                     const data::TypeRegistry& types);

  /// Process input/output container prototypes.
  const data::Container& input() const { return input_; }
  const data::Container& output() const { return output_; }

  /// Activity `aid`'s input/output container prototypes: what cold
  /// containers materialize from on first touch, and the fresh output of
  /// every program attempt.
  const data::Container& activity_input(uint32_t aid) const {
    return inputs_[aid];
  }
  const data::Container& activity_output(uint32_t aid) const {
    return outputs_[aid];
  }

  /// The preformatted hot block (plan->hot() layout): zeroed state /
  /// enqueued / attempt / failures planes, connector-eval planes filled
  /// with -1 (not yet evaluated). Spin-up is one copy of this.
  const std::vector<uint8_t>& hot_image() const { return hot_; }

  uint32_t activity_count() const {
    return static_cast<uint32_t>(inputs_.size());
  }

 private:
  data::Container input_;
  data::Container output_;
  std::vector<data::Container> inputs_;
  std::vector<data::Container> outputs_;
  std::vector<uint8_t> hot_;
};

}  // namespace exotica::wfrt

#endif  // EXOTICA_WFRT_ARENA_H_
