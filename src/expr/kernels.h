// Shared condition-evaluation kernels and error-message tables.
//
// Two evaluators execute condition semantics: the tree-walk reference
// (eval.cc) and the typed condition VM (vm.cc). Their contract is
// byte-identical results *and* byte-identical error strings — asserted by
// the differential property test — so the comparison semantics and every
// data-dependent error message live here, once, and both evaluators
// consume this header instead of replicating the table.

#ifndef EXOTICA_EXPR_KERNELS_H_
#define EXOTICA_EXPR_KERNELS_H_

#include <cstdint>

#include "expr/ast.h"

namespace exotica::expr::internal {

// Data-dependent evaluation errors (the only errors a fully typed program
// can still raise). The prefix composes with the identifier's source text:
//   Status::FailedPrecondition(kUnsetDataPrefix + name)
inline constexpr const char kUnsetDataPrefix[] =
    "condition references unset data: ";
inline constexpr const char kDivisionByZero[] = "division by zero in condition";
inline constexpr const char kModuloByZero[] = "modulo by zero in condition";

/// \brief The one true numeric comparison: both operands widened to
/// double (longs via static_cast, exactly like Value::ToDouble), ordered
/// like the tree-walk kernel's three-way cmp.
///
/// kLe/kGe are the kernel's cmp<=0 / cmp>=0 — spelled !(x>y) / !(x<y), not
/// x<=y / x>=y. For ordinary doubles the forms agree; the spelling is kept
/// negated so a future NaN-bearing source (none exists today: Set() only
/// stores parsed literals) cannot make the evaluators diverge.
inline bool CompareDouble(BinaryOp op, double x, double y) {
  switch (op) {
    case BinaryOp::kEq: return x == y;
    case BinaryOp::kNeq: return x != y;
    case BinaryOp::kLt: return x < y;
    case BinaryOp::kLe: return !(x > y);
    case BinaryOp::kGt: return x > y;
    case BinaryOp::kGe: return !(x < y);
    default: return false;  // not a comparison; callers dispatch first
  }
}

/// \brief Widening used by every evaluator when a long meets a float (and
/// by the typed VM's kI64ToF64 instructions).
inline double WidenLong(int64_t v) { return static_cast<double>(v); }

}  // namespace exotica::expr::internal

#endif  // EXOTICA_EXPR_KERNELS_H_
