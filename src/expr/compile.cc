#include "expr/compile.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "expr/eval.h"

namespace exotica::expr {
namespace {

using TOp = CompiledCondition::TOp;
using TInstr = CompiledCondition::TInstr;
using TCell = CompiledCondition::TCell;
using data::ScalarType;

/// Resolver for compile-time folding of identifier-free subtrees. Never
/// actually invoked — folding is only attempted when the subtree contains
/// no identifiers.
class NoIdentifierResolver : public ValueResolver {
 public:
  Result<data::Value> Resolve(const std::string& name) const override {
    return Status::Internal("constant fold resolved identifier: " + name);
  }
};

bool HasIdentifiers(const Node& node) {
  switch (node.kind) {
    case NodeKind::kLiteral:
      return false;
    case NodeKind::kIdentifier:
      return true;
    case NodeKind::kUnary:
      return HasIdentifiers(*node.lhs);
    case NodeKind::kBinary:
      return HasIdentifiers(*node.lhs) || HasIdentifiers(*node.rhs);
  }
  return true;
}

/// Static type lattice of the typing pass: kNone means "this member
/// cannot be monomorphized" (strings).
enum class STy : uint8_t { kNone, kLong, kFloat, kBool };

STy STyOf(ScalarType t) {
  switch (t) {
    case ScalarType::kLong: return STy::kLong;
    case ScalarType::kFloat: return STy::kFloat;
    case ScalarType::kBool: return STy::kBool;
    default: return STy::kNone;
  }
}

}  // namespace

namespace internal {

/// Lowers one AST into a typed CompiledCondition. Every subtree must type
/// statically against the shape's declared member scalar types; the first
/// construct that does not (a string operand, an operation whose execution
/// would be a runtime type error, a null literal) makes the whole
/// condition Unsupported, and the navigator tree-walks it.
class ConditionEmitter {
 public:
  explicit ConditionEmitter(const data::Container& shape) : shape_(shape) {}

  Result<STy> Emit(const Node& node) {
    // Fold identifier-free subtrees that evaluate cleanly. Subtrees whose
    // evaluation errors (1/0) are emitted structurally so the runtime
    // reproduces the tree-walk's error, message and all.
    if (!HasIdentifiers(node)) {
      Result<data::Value> folded = expr::Evaluate(node, NoIdentifierResolver());
      if (folded.ok()) return PushConst(*folded);
    }
    switch (node.kind) {
      case NodeKind::kLiteral:
        return PushConst(node.literal);
      case NodeKind::kIdentifier:
        return EmitLoad(node);
      case NodeKind::kUnary: {
        EXO_ASSIGN_OR_RETURN(STy operand, Emit(*node.lhs));
        if (node.unary_op == UnaryOp::kNot) {
          if (operand != STy::kBool) return Untyped("NOT of a non-boolean");
          Push(TOp::kNotB);
          return STy::kBool;
        }
        if (operand == STy::kLong) {
          Push(TOp::kNegI64);
        } else if (operand == STy::kFloat) {
          Push(TOp::kNegF64);
        } else {
          return Untyped("unary '-' of a non-number");
        }
        return operand;
      }
      case NodeKind::kBinary:
        return EmitBinary(node);
    }
    return Status::Internal("unknown expression node kind");
  }

  Result<CompiledCondition> Finish(const Node& root, STy root_ty) {
    if (prog_.max_stack_ > CompiledCondition::kMaxStack) {
      return Status::Unsupported("condition needs " +
                                 std::to_string(prog_.max_stack_) +
                                 " value-stack slots");
    }
    prog_.source_ = root.ToString();
    prog_.bound_type_ = shape_.type_name();
    switch (root_ty) {
      case STy::kLong: prog_.typed_result_ = ScalarType::kLong; break;
      case STy::kFloat: prog_.typed_result_ = ScalarType::kFloat; break;
      default: prog_.typed_result_ = ScalarType::kBool; break;
    }
    return std::move(prog_);
  }

 private:
  static Status Untyped(const std::string& what) {
    return Status::Unsupported("condition does not type: " + what);
  }

  void Grow(uint32_t pushed) {
    depth_ += pushed;
    prog_.max_stack_ = std::max(prog_.max_stack_, depth_);
  }

  void Push(TOp op, uint32_t a = 0, uint32_t b = 0) {
    prog_.code_.push_back(TInstr{op, a, b});
  }

  /// Widens a long operand of a mixed/double-compared binary op. `under`
  /// converts the lhs (one below the top of stack), emitted after both
  /// operands are on the stack.
  void Widen(bool under) { Push(under ? TOp::kI64ToF64Under : TOp::kI64ToF64); }

  Result<STy> PushConst(const data::Value& v) {
    TCell cell;
    TOp op;
    STy ty;
    switch (v.type()) {
      case ScalarType::kLong:
        cell.i = v.as_long();
        op = TOp::kConstI64;
        ty = STy::kLong;
        break;
      case ScalarType::kFloat:
        cell.f = v.as_float();
        op = TOp::kConstF64;
        ty = STy::kFloat;
        break;
      case ScalarType::kBool:
        cell.b = v.as_bool();
        op = TOp::kConstB;
        ty = STy::kBool;
        break;
      default:  // strings (and the unreachable null literal)
        return Untyped("constant " + v.ToString());
    }
    Push(op, static_cast<uint32_t>(prog_.consts_.size()));
    prog_.consts_.push_back(cell);
    Grow(1);
    return ty;
  }

  Result<STy> EmitLoad(const Node& node) {
    uint32_t slot = shape_.SlotIndex(node.identifier);
    if (slot == data::Container::kNoSlot) {
      return Status::Unsupported("condition references " + node.identifier +
                                 ", which container type " +
                                 shape_.type_name() + " does not declare");
    }
    auto [it, inserted] =
        name_pool_.emplace(node.identifier, prog_.names_.size());
    if (inserted) prog_.names_.push_back(node.identifier);
    STy ty = STyOf(shape_.SlotType(slot));
    switch (ty) {
      case STy::kLong: Push(TOp::kLoadI64, slot, it->second); break;
      case STy::kFloat: Push(TOp::kLoadF64, slot, it->second); break;
      case STy::kBool: Push(TOp::kLoadB, slot, it->second); break;
      default: return Untyped("member " + node.identifier);
    }
    prog_.min_slots_ = std::max(prog_.min_slots_, slot + 1);
    Grow(1);
    return ty;
  }

  Result<STy> EmitBinary(const Node& node) {
    if (node.binary_op == BinaryOp::kAnd || node.binary_op == BinaryOp::kOr) {
      const bool is_and = node.binary_op == BinaryOp::kAnd;
      // Both sides must be statically boolean (a non-bool would be the
      // tree-walk's runtime type error).
      EXO_ASSIGN_OR_RETURN(STy lty, Emit(*node.lhs));
      if (lty != STy::kBool) return Untyped("AND/OR of a non-boolean");
      --depth_;  // the jump pops the lhs...
      size_t jump_at = prog_.code_.size();
      Push(is_and ? TOp::kAndJumpFalse : TOp::kOrJumpTrue);
      EXO_ASSIGN_OR_RETURN(STy rty, Emit(*node.rhs));
      if (rty != STy::kBool) return Untyped("AND/OR of a non-boolean");
      // ...and the short-circuit path re-pushes the decided value, so both
      // paths leave exactly one result (rhs depth already counted it).
      prog_.code_[jump_at].a = static_cast<uint32_t>(prog_.code_.size());
      return STy::kBool;
    }
    EXO_ASSIGN_OR_RETURN(STy lty, Emit(*node.lhs));
    EXO_ASSIGN_OR_RETURN(STy rty, Emit(*node.rhs));
    EXO_ASSIGN_OR_RETURN(STy ty, EmitOperator(node.binary_op, lty, rty));
    --depth_;  // two operands become one result
    return ty;
  }

  /// Lowers one binary operator given both operand types; the operands
  /// are already on the stack. Pairs whose execution would be the
  /// tree-walk's runtime type error (string ordering, % on floats,
  /// comparing a bool with a number) do not type.
  Result<STy> EmitOperator(BinaryOp op, STy lty, STy rty) {
    const bool l_num = lty == STy::kLong || lty == STy::kFloat;
    const bool r_num = rty == STy::kLong || rty == STy::kFloat;
    const bool both_long = lty == STy::kLong && rty == STy::kLong;
    switch (op) {
      case BinaryOp::kEq:
      case BinaryOp::kNeq: {
        if (lty == STy::kBool && rty == STy::kBool) {
          Push(op == BinaryOp::kEq ? TOp::kCmpEqB : TOp::kCmpNeB);
          return STy::kBool;
        }
        if (!l_num || !r_num) return Untyped("mixed equality");
        if (both_long) {
          Push(op == BinaryOp::kEq ? TOp::kCmpEqI64 : TOp::kCmpNeI64);
        } else {
          if (lty == STy::kLong) Widen(/*under=*/true);
          if (rty == STy::kLong) Widen(/*under=*/false);
          Push(op == BinaryOp::kEq ? TOp::kCmpEqF64 : TOp::kCmpNeF64);
        }
        return STy::kBool;
      }
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        if (!l_num || !r_num) return Untyped("ordering of non-numbers");
        TOp base;
        switch (op) {
          case BinaryOp::kLt: base = both_long ? TOp::kCmpLtI64 : TOp::kCmpLtF64; break;
          case BinaryOp::kLe: base = both_long ? TOp::kCmpLeI64 : TOp::kCmpLeF64; break;
          case BinaryOp::kGt: base = both_long ? TOp::kCmpGtI64 : TOp::kCmpGtF64; break;
          default:            base = both_long ? TOp::kCmpGeI64 : TOp::kCmpGeF64; break;
        }
        if (!both_long) {
          if (lty == STy::kLong) Widen(/*under=*/true);
          if (rty == STy::kLong) Widen(/*under=*/false);
        }
        Push(base);
        return STy::kBool;
      }
      case BinaryOp::kMod:
        if (!both_long) return Untyped("'%' of non-longs");
        Push(TOp::kModI64);
        return STy::kLong;
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv: {
        if (!l_num || !r_num) return Untyped("arithmetic on non-numbers");
        if (both_long) {
          switch (op) {
            case BinaryOp::kAdd: Push(TOp::kAddI64); break;
            case BinaryOp::kSub: Push(TOp::kSubI64); break;
            case BinaryOp::kMul: Push(TOp::kMulI64); break;
            default: Push(TOp::kDivI64); break;
          }
          return STy::kLong;
        }
        if (lty == STy::kLong) Widen(/*under=*/true);
        if (rty == STy::kLong) Widen(/*under=*/false);
        switch (op) {
          case BinaryOp::kAdd: Push(TOp::kAddF64); break;
          case BinaryOp::kSub: Push(TOp::kSubF64); break;
          case BinaryOp::kMul: Push(TOp::kMulF64); break;
          default: Push(TOp::kDivF64); break;
        }
        return STy::kFloat;
      }
      default:
        return Status::Internal("unexpected binary operator");
    }
  }

  const data::Container& shape_;
  CompiledCondition prog_;
  std::map<std::string, uint32_t> name_pool_;
  uint32_t depth_ = 0;
};

}  // namespace internal

Result<CompiledCondition> ConditionCompiler::Compile(
    const Node* root, const data::Container& shape) {
  if (root == nullptr) return CompiledCondition();
  internal::ConditionEmitter emitter(shape);
  EXO_ASSIGN_OR_RETURN(STy root_ty, emitter.Emit(*root));
  return emitter.Finish(*root, root_ty);
}

}  // namespace exotica::expr
