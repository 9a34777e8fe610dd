// Abstract syntax tree for the HLS C subset.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/enum_names.hpp"
#include "frontend/lexer.hpp"

namespace hermes::fe {

/// Scalar integer/bool type. Widths: bool=1; iN/uN for N in {8,16,32,64}.
struct Type {
  enum class Kind : std::uint8_t { kVoid, kBool, kInt };
  Kind kind = Kind::kInt;
  unsigned bits = 32;
  bool is_signed = true;

  static Type Void() { return {Kind::kVoid, 0, false}; }
  static Type Bool() { return {Kind::kBool, 1, false}; }
  static Type Int(unsigned bits, bool is_signed) {
    return {Kind::kInt, bits, is_signed};
  }
  bool operator==(const Type&) const = default;
  [[nodiscard]] std::string to_string() const;
};

/// Parses a type name: void, bool, int, unsigned, char, short, long,
/// int8_t..int64_t, uint8_t..uint64_t. Returns false if `name` is not a type.
bool parse_type_name(std::string_view name, Type& out);

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

#define HERMES_UNARY_OPS(X)                                                   \
  X(kNeg, "-") X(kNot, "!") X(kBitNot, "~")
HERMES_ENUM(UnaryOp, std::uint8_t, HERMES_UNARY_OPS)

#define HERMES_BINARY_OPS(X)                                                  \
  X(kAdd, "+") X(kSub, "-") X(kMul, "*") X(kDiv, "/") X(kRem, "%")            \
  X(kAnd, "&") X(kOr, "|") X(kXor, "^") X(kShl, "<<") X(kShr, ">>")           \
  X(kEq, "==") X(kNe, "!=") X(kLt, "<") X(kLe, "<=") X(kGt, ">") X(kGe, ">=") \
  X(kLogicalAnd, "&&") X(kLogicalOr, "||")
HERMES_ENUM(BinaryOp, std::uint8_t, HERMES_BINARY_OPS)

struct Expr {
  enum class Kind : std::uint8_t {
    kIntLit, kBoolLit, kVarRef, kArrayIndex, kUnary, kBinary,
    kTernary, kCall, kCast, kAssign,
  };
  explicit Expr(Kind kind) : kind(kind) {}
  virtual ~Expr() = default;

  Kind kind;
  SrcLoc loc;
  Type type;  ///< filled in by the type checker
};

using ExprPtr = std::unique_ptr<Expr>;

struct IntLitExpr : Expr {
  IntLitExpr() : Expr(Kind::kIntLit) {}
  std::uint64_t value = 0;
};

struct BoolLitExpr : Expr {
  BoolLitExpr() : Expr(Kind::kBoolLit) {}
  bool value = false;
};

struct VarRefExpr : Expr {
  VarRefExpr() : Expr(Kind::kVarRef) {}
  std::string name;
};

struct ArrayIndexExpr : Expr {
  ArrayIndexExpr() : Expr(Kind::kArrayIndex) {}
  std::string array;
  /// One expression per dimension (a[i][j] has two); the type checker
  /// requires exactly as many as the array declares.
  std::vector<ExprPtr> indices;
};

struct UnaryExpr : Expr {
  UnaryExpr() : Expr(Kind::kUnary) {}
  UnaryOp op = UnaryOp::kNeg;
  ExprPtr operand;
};

struct BinaryExpr : Expr {
  BinaryExpr() : Expr(Kind::kBinary) {}
  BinaryOp op = BinaryOp::kAdd;
  ExprPtr lhs, rhs;
};

struct TernaryExpr : Expr {
  TernaryExpr() : Expr(Kind::kTernary) {}
  ExprPtr condition, if_true, if_false;
};

struct CallExpr : Expr {
  CallExpr() : Expr(Kind::kCall) {}
  std::string callee;
  std::vector<ExprPtr> args;  ///< scalar args; array args are VarRefs to arrays
};

struct CastExpr : Expr {
  CastExpr() : Expr(Kind::kCast) {}
  Type target;
  ExprPtr operand;
};

/// Assignment used as an expression (value = stored value). Targets are
/// variables or array elements.
struct AssignExpr : Expr {
  AssignExpr() : Expr(Kind::kAssign) {}
  ExprPtr target;  ///< VarRefExpr or ArrayIndexExpr
  ExprPtr value;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct Stmt {
  enum class Kind : std::uint8_t {
    kExpr, kVarDecl, kBlock, kIf, kWhile, kDoWhile, kFor,
    kReturn, kBreak, kContinue,
  };
  explicit Stmt(Kind kind) : kind(kind) {}
  virtual ~Stmt() = default;

  Kind kind;
  SrcLoc loc;
};

using StmtPtr = std::unique_ptr<Stmt>;

struct ExprStmt : Stmt {
  ExprStmt() : Stmt(Kind::kExpr) {}
  ExprPtr expr;
};

/// Declares a scalar (array_size == 0) or a fixed-size local array
/// (possibly multi-dimensional; array_size is the flattened element count).
struct VarDeclStmt : Stmt {
  VarDeclStmt() : Stmt(Kind::kVarDecl) {}
  Type type;
  std::string name;
  std::size_t array_size = 0;
  std::vector<std::size_t> dims;     ///< per-dimension extents (empty = scalar)
  ExprPtr init;                      ///< scalar initializer (optional)
  std::vector<std::uint64_t> array_init;  ///< flattened initializer (optional)
};

struct BlockStmt : Stmt {
  BlockStmt() : Stmt(Kind::kBlock) {}
  std::vector<StmtPtr> body;
};

struct IfStmt : Stmt {
  IfStmt() : Stmt(Kind::kIf) {}
  ExprPtr condition;
  StmtPtr then_branch;
  StmtPtr else_branch;  ///< may be null
};

struct WhileStmt : Stmt {
  WhileStmt() : Stmt(Kind::kWhile) {}
  ExprPtr condition;
  StmtPtr body;
};

struct DoWhileStmt : Stmt {
  DoWhileStmt() : Stmt(Kind::kDoWhile) {}
  StmtPtr body;
  ExprPtr condition;
};

struct ForStmt : Stmt {
  ForStmt() : Stmt(Kind::kFor) {}
  StmtPtr init;       ///< VarDeclStmt or ExprStmt; may be null
  ExprPtr condition;  ///< may be null (infinite)
  ExprPtr update;     ///< may be null
  StmtPtr body;
};

struct ReturnStmt : Stmt {
  ReturnStmt() : Stmt(Kind::kReturn) {}
  ExprPtr value;  ///< null for void return
};

struct BreakStmt : Stmt {
  BreakStmt() : Stmt(Kind::kBreak) {}
};

struct ContinueStmt : Stmt {
  ContinueStmt() : Stmt(Kind::kContinue) {}
};

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

/// Calls `on_expr` on each direct sub-expression of `expr`, in source order.
template <typename OnExpr>
void for_each_child(const Expr& expr, OnExpr&& on_expr) {
  switch (expr.kind) {
    case Expr::Kind::kArrayIndex:
      for (const ExprPtr& index :
           static_cast<const ArrayIndexExpr&>(expr).indices) {
        on_expr(*index);
      }
      break;
    case Expr::Kind::kUnary:
      on_expr(*static_cast<const UnaryExpr&>(expr).operand);
      break;
    case Expr::Kind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      on_expr(*bin.lhs);
      on_expr(*bin.rhs);
      break;
    }
    case Expr::Kind::kTernary: {
      const auto& sel = static_cast<const TernaryExpr&>(expr);
      on_expr(*sel.condition);
      on_expr(*sel.if_true);
      on_expr(*sel.if_false);
      break;
    }
    case Expr::Kind::kCall:
      for (const ExprPtr& arg : static_cast<const CallExpr&>(expr).args) {
        on_expr(*arg);
      }
      break;
    case Expr::Kind::kCast:
      on_expr(*static_cast<const CastExpr&>(expr).operand);
      break;
    case Expr::Kind::kAssign: {
      const auto& assign = static_cast<const AssignExpr&>(expr);
      on_expr(*assign.target);
      on_expr(*assign.value);
      break;
    }
    case Expr::Kind::kIntLit:
    case Expr::Kind::kBoolLit:
    case Expr::Kind::kVarRef:
      break;
  }
}

/// Calls `on_expr` on each direct expression and `on_stmt` on each direct
/// statement of `stmt`, in source order (a do-while's body before its
/// condition); absent optional parts are skipped.
template <typename OnExpr, typename OnStmt>
void for_each_child(const Stmt& stmt, OnExpr&& on_expr, OnStmt&& on_stmt) {
  switch (stmt.kind) {
    case Stmt::Kind::kExpr:
      on_expr(*static_cast<const ExprStmt&>(stmt).expr);
      break;
    case Stmt::Kind::kVarDecl: {
      const auto& decl = static_cast<const VarDeclStmt&>(stmt);
      if (decl.init) on_expr(*decl.init);
      break;
    }
    case Stmt::Kind::kBlock:
      for (const StmtPtr& child : static_cast<const BlockStmt&>(stmt).body) {
        on_stmt(*child);
      }
      break;
    case Stmt::Kind::kIf: {
      const auto& branch = static_cast<const IfStmt&>(stmt);
      on_expr(*branch.condition);
      on_stmt(*branch.then_branch);
      if (branch.else_branch) on_stmt(*branch.else_branch);
      break;
    }
    case Stmt::Kind::kWhile: {
      const auto& loop = static_cast<const WhileStmt&>(stmt);
      on_expr(*loop.condition);
      on_stmt(*loop.body);
      break;
    }
    case Stmt::Kind::kDoWhile: {
      const auto& loop = static_cast<const DoWhileStmt&>(stmt);
      on_stmt(*loop.body);
      on_expr(*loop.condition);
      break;
    }
    case Stmt::Kind::kFor: {
      const auto& loop = static_cast<const ForStmt&>(stmt);
      if (loop.init) on_stmt(*loop.init);
      if (loop.condition) on_expr(*loop.condition);
      if (loop.update) on_expr(*loop.update);
      on_stmt(*loop.body);
      break;
    }
    case Stmt::Kind::kReturn: {
      const auto& ret = static_cast<const ReturnStmt&>(stmt);
      if (ret.value) on_expr(*ret.value);
      break;
    }
    case Stmt::Kind::kBreak:
    case Stmt::Kind::kContinue:
      break;
  }
}

// ---------------------------------------------------------------------------
// Functions and programs
// ---------------------------------------------------------------------------

/// Function parameter: scalar, or array of fixed size (becomes an accelerator
/// memory interface in the HLS flow).
struct Param {
  Type type;
  std::string name;
  std::size_t array_size = 0;  ///< flattened element count; 0 = scalar
  std::vector<std::size_t> dims;  ///< per-dimension extents (empty = scalar)
  bool is_const = false;       ///< const arrays are read-only (ROM candidates)
};

struct FuncDecl {
  Type return_type;
  std::string name;
  std::vector<Param> params;
  std::unique_ptr<BlockStmt> body;
  SrcLoc loc;
};

struct Program {
  std::vector<FuncDecl> functions;
  [[nodiscard]] const FuncDecl* find(std::string_view name) const {
    for (const FuncDecl& fn : functions) {
      if (fn.name == name) return &fn;
    }
    return nullptr;
  }
};

}  // namespace hermes::fe
