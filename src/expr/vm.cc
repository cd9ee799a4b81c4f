#include "expr/vm.h"

#include "expr/ast.h"
#include "expr/kernels.h"

namespace exotica::expr {

using data::ScalarType;
using data::Value;

Status CompiledCondition::CheckReadable(const data::Container& c) const {
  if (c.slot_count() < min_slots_) {
    return Status::Internal("compiled condition bound against container type " +
                            bound_type_ + " cannot read a container of type " +
                            c.type_name());
  }
  return Status::OK();
}

Result<Value> CompiledCondition::Evaluate(const data::Container& c) const {
  if (code_.empty()) return Value(true);
  EXO_RETURN_NOT_OK(CheckReadable(c));
  EXO_ASSIGN_OR_RETURN(TCell r, Run(c));
  switch (typed_result_) {
    case ScalarType::kLong: return Value(r.i);
    case ScalarType::kFloat: return Value(r.f);
    case ScalarType::kBool: return Value(r.b);
    default: break;
  }
  return Status::Internal("condition program has no result type");
}

Result<CompiledCondition::TCell> CompiledCondition::Run(
    const data::Container& c) const {
  // Raw scalar cells: no constructors, so sizing to the cap costs nothing.
  TCell stack[kMaxStack];
  uint32_t sp = 0;
  const TInstr* code = code_.data();
  const size_t n = code_.size();
  for (size_t pc = 0; pc < n; ++pc) {
    const TInstr& in = code[pc];
    switch (in.op) {
      case TOp::kConstI64:
      case TOp::kConstF64:
      case TOp::kConstB:
        stack[sp++] = consts_[in.a];
        break;
      case TOp::kLoadI64: {
        const Value& v = c.GetSlot(in.a);
        if (v.is_null()) {
          return Status::FailedPrecondition(internal::kUnsetDataPrefix +
                                            names_[in.b]);
        }
        stack[sp++].i = v.as_long();
        break;
      }
      case TOp::kLoadF64: {
        const Value& v = c.GetSlot(in.a);
        if (v.is_null()) {
          return Status::FailedPrecondition(internal::kUnsetDataPrefix +
                                            names_[in.b]);
        }
        stack[sp++].f = v.as_float();
        break;
      }
      case TOp::kLoadB: {
        const Value& v = c.GetSlot(in.a);
        if (v.is_null()) {
          return Status::FailedPrecondition(internal::kUnsetDataPrefix +
                                            names_[in.b]);
        }
        stack[sp++].b = v.as_bool();
        break;
      }
      case TOp::kI64ToF64:
        stack[sp - 1].f = static_cast<double>(stack[sp - 1].i);
        break;
      case TOp::kI64ToF64Under:
        stack[sp - 2].f = static_cast<double>(stack[sp - 2].i);
        break;
      case TOp::kNotB:
        stack[sp - 1].b = !stack[sp - 1].b;
        break;
      case TOp::kNegI64:
        stack[sp - 1].i = -stack[sp - 1].i;
        break;
      case TOp::kNegF64:
        stack[sp - 1].f = -stack[sp - 1].f;
        break;
      // Long comparisons widen through double so they order exactly like
      // internal::CompareOp; both widths run the one shared kernel
      // (internal::CompareDouble, kernels.h), which constant-folds per
      // case since the operator is a compile-time constant here.
#define EXO_TCMP(OPC, BOP)                                         \
  case TOp::OPC##I64: {                                            \
    const double x = internal::WidenLong(stack[sp - 2].i);         \
    const double y = internal::WidenLong(stack[sp - 1].i);         \
    --sp;                                                          \
    stack[sp - 1].b = internal::CompareDouble(BinaryOp::BOP, x, y); \
    break;                                                         \
  }                                                                \
  case TOp::OPC##F64: {                                            \
    const double x = stack[sp - 2].f;                              \
    const double y = stack[sp - 1].f;                              \
    --sp;                                                          \
    stack[sp - 1].b = internal::CompareDouble(BinaryOp::BOP, x, y); \
    break;                                                         \
  }
      EXO_TCMP(kCmpEq, kEq)
      EXO_TCMP(kCmpNe, kNeq)
      EXO_TCMP(kCmpLt, kLt)
      EXO_TCMP(kCmpLe, kLe)
      EXO_TCMP(kCmpGt, kGt)
      EXO_TCMP(kCmpGe, kGe)
#undef EXO_TCMP
      case TOp::kCmpEqB: {
        const bool r = stack[sp - 2].b == stack[sp - 1].b;
        --sp;
        stack[sp - 1].b = r;
        break;
      }
      case TOp::kCmpNeB: {
        const bool r = stack[sp - 2].b != stack[sp - 1].b;
        --sp;
        stack[sp - 1].b = r;
        break;
      }
      case TOp::kAddI64:
        --sp;
        stack[sp - 1].i = stack[sp - 1].i + stack[sp].i;
        break;
      case TOp::kSubI64:
        --sp;
        stack[sp - 1].i = stack[sp - 1].i - stack[sp].i;
        break;
      case TOp::kMulI64:
        --sp;
        stack[sp - 1].i = stack[sp - 1].i * stack[sp].i;
        break;
      case TOp::kDivI64: {
        const int64_t y = stack[sp - 1].i;
        if (y == 0) {
          // The kernel's exact error (internal::ArithmeticOp).
          return Status::InvalidArgument(internal::kDivisionByZero);
        }
        --sp;
        stack[sp - 1].i = stack[sp - 1].i / y;
        break;
      }
      case TOp::kModI64: {
        const int64_t y = stack[sp - 1].i;
        if (y == 0) {
          return Status::InvalidArgument(internal::kModuloByZero);
        }
        --sp;
        stack[sp - 1].i = stack[sp - 1].i % y;
        break;
      }
      case TOp::kAddF64:
        --sp;
        stack[sp - 1].f = stack[sp - 1].f + stack[sp].f;
        break;
      case TOp::kSubF64:
        --sp;
        stack[sp - 1].f = stack[sp - 1].f - stack[sp].f;
        break;
      case TOp::kMulF64:
        --sp;
        stack[sp - 1].f = stack[sp - 1].f * stack[sp].f;
        break;
      case TOp::kDivF64: {
        const double y = stack[sp - 1].f;
        if (y == 0.0) {
          return Status::InvalidArgument(internal::kDivisionByZero);
        }
        --sp;
        stack[sp - 1].f = stack[sp - 1].f / y;
        break;
      }
      case TOp::kAndJumpFalse: {
        const bool v = stack[--sp].b;
        if (!v) {
          stack[sp++].b = false;
          pc = in.a - 1;  // for-loop increment lands on the jump target
        }
        break;
      }
      case TOp::kOrJumpTrue: {
        const bool v = stack[--sp].b;
        if (v) {
          stack[sp++].b = true;
          pc = in.a - 1;
        }
        break;
      }
    }
  }
  return stack[0];
}

Result<bool> CompiledCondition::EvaluateBool(const data::Container& c) const {
  // Statically boolean programs skip Value construction entirely: the
  // non-boolean error below is impossible for them by construction.
  if (typed_result_ == ScalarType::kBool) {
    EXO_RETURN_NOT_OK(CheckReadable(c));
    EXO_ASSIGN_OR_RETURN(TCell r, Run(c));
    return r.b;
  }
  EXO_ASSIGN_OR_RETURN(Value v, Evaluate(c));
  if (!v.is_bool()) {
    return Status::InvalidArgument("condition did not evaluate to a boolean: " +
                                   source_ + " = " + v.ToString());
  }
  return v.as_bool();
}

}  // namespace exotica::expr
