// CompiledCondition: a typed, slot-resolved program for one condition
// expression.
//
// The tree-walk evaluator (eval.h) resolves every identifier through a
// virtual ValueResolver and a string-keyed Container::Get per reference —
// on the navigator's hottest path. A CompiledCondition is the same
// expression lowered once, at NavigationPlan build time, into a flat
// program: identifiers become integer slot loads against the container's
// immutable Layout, constants are folded, and AND/OR become short-circuit
// jumps.
//
// The program is *typed*: the compiler proves every operand's scalar type
// from the container layout's declared member types, so its instructions
// are monomorphic (kLoadI64, kCmpLtF64, kAndJumpFalse, ...) and run over a
// stack of raw machine scalars — no Value construction, no operand-kind
// switch, no type checks that the typing pass already discharged.
// Expressions the pass cannot fully type (string operands, mixed typing
// that would be a runtime type error, null literals) get no program at
// all; the navigator tree-walks them (see compile.h).
//
// Semantics are exactly those of expr::Evaluate, including error
// *messages*: the typed program widens long comparisons through double
// exactly like internal::CompareOp, and its division/modulo guards raise
// the kernels' exact errors, so the differential property test can demand
// byte-identical outcomes against the tree-walk reference.
//
// A CompiledCondition is immutable after compilation and holds no mutable
// evaluation state, so one program may be evaluated concurrently from many
// engine threads (the NavigationPlan that owns it is fleet-shared).

#ifndef EXOTICA_EXPR_VM_H_
#define EXOTICA_EXPR_VM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/container.h"
#include "data/value.h"

namespace exotica::expr {

namespace internal {
class ConditionEmitter;
}  // namespace internal

/// \brief A compiled, typed, slot-resolved condition program.
class CompiledCondition {
 public:
  /// \brief Monomorphic opcodes. The typing pass has already proven every
  /// operand's scalar type, so these ops carry no runtime type dispatch;
  /// only the data-dependent errors survive (null member reads,
  /// division/modulo by zero).
  enum class TOp : uint8_t {
    kConstI64, kConstF64, kConstB,  ///< push consts[a]
    kLoadI64, kLoadF64, kLoadB,     ///< push slot `a` (null read errors,
                                    ///< names[b] names the identifier)
    kI64ToF64,       ///< widen the top of stack long → double
    kI64ToF64Under,  ///< widen the long *below* the top (lhs of a mixed op)
    kNotB, kNegI64, kNegF64,
    // Comparisons push bool. The I64 variants widen through double
    // internally so they order exactly like internal::CompareOp.
    kCmpEqI64, kCmpNeI64, kCmpLtI64, kCmpLeI64, kCmpGtI64, kCmpGeI64,
    kCmpEqF64, kCmpNeF64, kCmpLtF64, kCmpLeF64, kCmpGtF64, kCmpGeF64,
    kCmpEqB, kCmpNeB,
    // Arithmetic (long op long stays long, as in the kernel; division and
    // modulo guard zero and raise the kernels' exact errors).
    kAddI64, kSubI64, kMulI64, kDivI64, kModI64,
    kAddF64, kSubF64, kMulF64, kDivF64,
    kAndJumpFalse,  ///< pop bool v; if !v push FALSE and jump to a
    kOrJumpTrue,    ///< pop bool v; if v push TRUE and jump to a
  };

  /// \brief One fixed-width instruction.
  struct TInstr {
    TOp op;
    uint32_t a = 0;  ///< const index / slot index / jump target
    uint32_t b = 0;  ///< loads: index into the identifier-name pool
  };

  /// \brief One operand-stack slot: a raw machine scalar whose kind the
  /// program knows statically.
  union TCell {
    int64_t i;
    double f;
    bool b;
  };

  /// Operand-stack capacity; expressions needing more fail to compile and
  /// fall back to the tree-walk.
  static constexpr uint32_t kMaxStack = 64;

  /// An empty program; evaluates to TRUE (the trivial condition).
  CompiledCondition() = default;

  /// Evaluates against `container`, which must have the layout the program
  /// was compiled against (same TypeRegistry flatten of bound_type()).
  Result<data::Value> Evaluate(const data::Container& container) const;

  /// Evaluates and requires a boolean result.
  Result<bool> EvaluateBool(const data::Container& container) const;

  bool empty() const { return code_.empty(); }
  const std::vector<TInstr>& code() const { return code_; }
  /// Canonical source text of the compiled expression ("TRUE" if empty).
  const std::string& source() const { return source_; }
  /// Container type the slot bindings were resolved against.
  const std::string& bound_type() const { return bound_type_; }
  uint32_t max_stack() const { return max_stack_; }
  /// Minimum slot count a container must have to be readable.
  uint32_t min_slots() const { return min_slots_; }

 private:
  friend class internal::ConditionEmitter;

  /// The dispatch loop; returns the raw result cell (its kind is
  /// typed_result_).
  Result<TCell> Run(const data::Container& container) const;

  /// Layout guard: the container must have the slots the program reads.
  Status CheckReadable(const data::Container& container) const;

  std::vector<TInstr> code_;
  std::vector<TCell> consts_;
  /// Identifier text per load instruction's TInstr::b (only consulted to
  /// build error messages).
  std::vector<std::string> names_;
  /// Statically inferred scalar type of the result (kNull when empty).
  data::ScalarType typed_result_ = data::ScalarType::kNull;
  std::string source_ = "TRUE";
  std::string bound_type_;
  uint32_t max_stack_ = 0;
  uint32_t min_slots_ = 0;
};

}  // namespace exotica::expr

#endif  // EXOTICA_EXPR_VM_H_
