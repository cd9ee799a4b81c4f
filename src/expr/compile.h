// ConditionCompiler: lowers a condition AST into a typed CompiledCondition.
//
// Compilation binds every identifier to a member slot of one concrete
// container shape, types every subtree against the shape's declared member
// scalar types, folds identifier-free subtrees that evaluate cleanly, and
// lowers AND/OR into short-circuit jumps. It is deliberately conservative:
// anything it cannot bind or type statically — an identifier the shape
// doesn't declare, a string operand, an operation whose execution would be
// a runtime type error, an expression deeper than the VM's value stack —
// returns Unsupported and the caller keeps the tree-walk evaluator for that
// condition. A compiled program must therefore only ever be run against
// containers sharing the layout of the shape it was bound to.

#ifndef EXOTICA_EXPR_COMPILE_H_
#define EXOTICA_EXPR_COMPILE_H_

#include "common/result.h"
#include "data/container.h"
#include "expr/ast.h"
#include "expr/vm.h"

namespace exotica::expr {

/// \brief Compiles condition ASTs against a container shape.
class ConditionCompiler {
 public:
  /// Compiles `root` with identifiers bound to slots of `shape`.
  /// A null `root` is the trivial condition and yields an empty
  /// (always-true) program. Returns Unsupported when the expression
  /// references a member `shape` doesn't declare, does not type, or needs
  /// more than CompiledCondition::kMaxStack stack slots; the caller falls
  /// back to the tree-walk evaluator.
  static Result<CompiledCondition> Compile(const Node* root,
                                           const data::Container& shape);
};

}  // namespace exotica::expr

#endif  // EXOTICA_EXPR_COMPILE_H_
