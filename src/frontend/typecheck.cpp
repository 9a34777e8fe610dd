#include "frontend/typecheck.hpp"

#include <map>
#include <set>
#include <vector>

#include "common/strings.hpp"

namespace hermes::fe {

Type arithmetic_result(const Type& a, const Type& b) {
  // Integer promotion: everything below 32 bits promotes to int32.
  auto promote = [](const Type& t) {
    if (t.kind == Type::Kind::kBool) return Type::Int(32, true);
    if (t.bits < 32) return Type::Int(32, true);
    return t;
  };
  const Type pa = promote(a);
  const Type pb = promote(b);
  if (pa.bits != pb.bits) return pa.bits > pb.bits ? pa : pb;
  if (pa.is_signed == pb.is_signed) return pa;
  return Type::Int(pa.bits, false);  // mixed signedness at equal width: unsigned
}

namespace {

struct VarInfo {
  Type type;
  std::size_t array_size = 0;  ///< flattened element count; 0 = scalar
  std::vector<std::size_t> dims;  ///< per-dimension extents
  bool is_const = false;
};

class Checker {
 public:
  explicit Checker(Program& program) : program_(program) {}

  Status run() {
    for (FuncDecl& fn : program_.functions) {
      if (!check_function(fn)) return error_;
    }
    if (!check_no_recursion()) return error_;
    return Status::Ok();
  }

 private:
  void fail(SrcLoc loc, std::string message) {
    if (error_.ok()) {
      error_ = Status::Error(ErrorCode::kTypeError,
                             format("line %u: %s", loc.line, message.c_str()));
    }
  }
  [[nodiscard]] bool failed() const { return !error_.ok(); }

  // ---- scope handling ----
  void push_scope() { scopes_.emplace_back(); }
  void pop_scope() { scopes_.pop_back(); }
  bool declare(SrcLoc loc, const std::string& name, VarInfo info) {
    if (scopes_.back().count(name)) {
      fail(loc, format("redeclaration of '%s'", name.c_str()));
      return false;
    }
    scopes_.back()[name] = std::move(info);
    return true;
  }
  const VarInfo* lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    return nullptr;
  }

  // ---- functions ----
  bool check_function(FuncDecl& fn) {
    current_ = &fn;
    scopes_.clear();
    push_scope();
    for (const Param& param : fn.params) {
      if (param.type.kind == Type::Kind::kVoid) {
        fail(fn.loc, format("parameter '%s' cannot be void", param.name.c_str()));
        return false;
      }
      declare(fn.loc, param.name,
              {param.type, param.array_size, param.dims, param.is_const});
      if (failed()) return false;
    }
    loop_depth_ = 0;
    check_stmt(*fn.body);
    pop_scope();
    return !failed();
  }

  bool check_no_recursion() {
    // DFS over the call graph; functions are inlined, so cycles are fatal.
    enum class Mark { kWhite, kGray, kBlack };
    std::map<std::string, Mark> marks;
    for (const FuncDecl& fn : program_.functions) marks[fn.name] = Mark::kWhite;

    std::vector<const FuncDecl*> stack;
    auto visit = [&](auto&& self, const FuncDecl& fn) -> bool {
      marks[fn.name] = Mark::kGray;
      bool ok = true;
      collect_calls(*fn.body, [&](const CallExpr& call) {
        const FuncDecl* callee = program_.find(call.callee);
        if (!callee) return;  // reported during expression checking
        if (marks[callee->name] == Mark::kGray) {
          fail(call.loc, format("recursive call to '%s' (recursion is not "
                                "synthesizable)", call.callee.c_str()));
          ok = false;
        } else if (marks[callee->name] == Mark::kWhite) {
          if (!self(self, *callee)) ok = false;
        }
      });
      marks[fn.name] = Mark::kBlack;
      return ok;
    };
    for (const FuncDecl& fn : program_.functions) {
      if (marks[fn.name] == Mark::kWhite && !visit(visit, fn)) return false;
    }
    return !failed();
  }

  /// Calls `fn` on every call expression in `stmt`, in source order.
  template <typename Fn>
  void collect_calls(const Stmt& stmt, const Fn& fn) {
    for_each_child(
        stmt, [&](const Expr& child) { collect_calls(child, fn); },
        [&](const Stmt& child) { collect_calls(child, fn); });
  }

  template <typename Fn>
  void collect_calls(const Expr& expr, const Fn& fn) {
    if (expr.kind == Expr::Kind::kCall) fn(static_cast<const CallExpr&>(expr));
    for_each_child(expr, [&](const Expr& child) { collect_calls(child, fn); });
  }

  // ---- statements ----
  void check_stmt(Stmt& stmt) {
    if (failed()) return;
    switch (stmt.kind) {
      case Stmt::Kind::kExpr:
        check_expr(*static_cast<ExprStmt&>(stmt).expr);
        break;
      case Stmt::Kind::kVarDecl: {
        auto& decl = static_cast<VarDeclStmt&>(stmt);
        if (decl.type.kind == Type::Kind::kVoid) {
          fail(decl.loc, format("variable '%s' cannot be void", decl.name.c_str()));
          return;
        }
        if (decl.array_size == 0 && !decl.array_init.empty()) {
          fail(decl.loc, "scalar cannot have an array initializer");
          return;
        }
        if (decl.array_init.size() > decl.array_size) {
          fail(decl.loc, format("too many initializers for '%s'", decl.name.c_str()));
          return;
        }
        if (decl.init) {
          check_expr(*decl.init);
          require_scalar(*decl.init, "initializer");
        }
        declare(decl.loc, decl.name,
                {decl.type, decl.array_size, decl.dims, false});
        break;
      }
      case Stmt::Kind::kBlock: {
        push_scope();
        for (StmtPtr& child : static_cast<BlockStmt&>(stmt).body) {
          check_stmt(*child);
        }
        pop_scope();
        break;
      }
      case Stmt::Kind::kIf: {
        auto& branch = static_cast<IfStmt&>(stmt);
        check_condition(*branch.condition);
        check_stmt(*branch.then_branch);
        if (branch.else_branch) check_stmt(*branch.else_branch);
        break;
      }
      case Stmt::Kind::kWhile: {
        auto& loop = static_cast<WhileStmt&>(stmt);
        check_condition(*loop.condition);
        ++loop_depth_;
        check_stmt(*loop.body);
        --loop_depth_;
        break;
      }
      case Stmt::Kind::kDoWhile: {
        auto& loop = static_cast<DoWhileStmt&>(stmt);
        ++loop_depth_;
        check_stmt(*loop.body);
        --loop_depth_;
        check_condition(*loop.condition);
        break;
      }
      case Stmt::Kind::kFor: {
        auto& loop = static_cast<ForStmt&>(stmt);
        push_scope();
        if (loop.init) check_stmt(*loop.init);
        if (loop.condition) check_condition(*loop.condition);
        if (loop.update) check_expr(*loop.update);
        ++loop_depth_;
        check_stmt(*loop.body);
        --loop_depth_;
        pop_scope();
        break;
      }
      case Stmt::Kind::kReturn: {
        auto& ret = static_cast<ReturnStmt&>(stmt);
        if (current_->return_type.kind == Type::Kind::kVoid) {
          if (ret.value) fail(ret.loc, "void function cannot return a value");
        } else {
          if (!ret.value) {
            fail(ret.loc, "non-void function must return a value");
          } else {
            check_expr(*ret.value);
            require_scalar(*ret.value, "return value");
          }
        }
        break;
      }
      case Stmt::Kind::kBreak:
        if (loop_depth_ == 0) fail(stmt.loc, "break outside a loop");
        break;
      case Stmt::Kind::kContinue:
        if (loop_depth_ == 0) fail(stmt.loc, "continue outside a loop");
        break;
    }
  }

  void check_condition(Expr& expr) {
    check_expr(expr);
    require_scalar(expr, "condition");
  }

  void require_scalar(const Expr& expr, const char* what) {
    if (failed()) return;
    if (expr.type.kind == Type::Kind::kVoid) {
      fail(expr.loc, format("%s must have a value", what));
    }
  }

  // ---- expressions ----
  void check_expr(Expr& expr) {
    if (failed()) return;
    switch (expr.kind) {
      case Expr::Kind::kIntLit: {
        auto& lit = static_cast<IntLitExpr&>(expr);
        // Literal type: int32 unless the value needs 64 bits.
        expr.type = lit.value > 0x7FFFFFFFull ? Type::Int(64, lit.value <= 0x7FFFFFFFFFFFFFFFull)
                                              : Type::Int(32, true);
        break;
      }
      case Expr::Kind::kBoolLit:
        expr.type = Type::Bool();
        break;
      case Expr::Kind::kVarRef: {
        auto& ref = static_cast<VarRefExpr&>(expr);
        const VarInfo* info = lookup(ref.name);
        if (!info) {
          fail(ref.loc, format("use of undeclared identifier '%s'", ref.name.c_str()));
          return;
        }
        if (info->array_size != 0) {
          fail(ref.loc, format("array '%s' used as a scalar (only indexing and "
                               "passing to array parameters is allowed)",
                               ref.name.c_str()));
          return;
        }
        expr.type = info->type;
        break;
      }
      case Expr::Kind::kArrayIndex: {
        auto& index = static_cast<ArrayIndexExpr&>(expr);
        const VarInfo* info = lookup(index.array);
        if (!info) {
          fail(index.loc, format("use of undeclared array '%s'", index.array.c_str()));
          return;
        }
        if (info->array_size == 0) {
          fail(index.loc, format("'%s' is not an array", index.array.c_str()));
          return;
        }
        if (index.indices.size() != info->dims.size()) {
          fail(index.loc,
               format("'%s' has %zu dimension(s) but %zu index(es) given",
                      index.array.c_str(), info->dims.size(),
                      index.indices.size()));
          return;
        }
        for (const ExprPtr& idx : index.indices) {
          check_expr(*idx);
          require_scalar(*idx, "array index");
        }
        expr.type = info->type;
        break;
      }
      case Expr::Kind::kUnary: {
        auto& unary = static_cast<UnaryExpr&>(expr);
        check_expr(*unary.operand);
        require_scalar(*unary.operand, "operand");
        if (failed()) return;
        switch (unary.op) {
          case UnaryOp::kNot:
            expr.type = Type::Bool();
            break;
          case UnaryOp::kNeg:
          case UnaryOp::kBitNot:
            expr.type = arithmetic_result(unary.operand->type, unary.operand->type);
            break;
        }
        break;
      }
      case Expr::Kind::kBinary: {
        auto& bin = static_cast<BinaryExpr&>(expr);
        check_expr(*bin.lhs);
        check_expr(*bin.rhs);
        require_scalar(*bin.lhs, "operand");
        require_scalar(*bin.rhs, "operand");
        if (failed()) return;
        switch (bin.op) {
          case BinaryOp::kEq: case BinaryOp::kNe:
          case BinaryOp::kLt: case BinaryOp::kLe:
          case BinaryOp::kGt: case BinaryOp::kGe:
          case BinaryOp::kLogicalAnd: case BinaryOp::kLogicalOr:
            expr.type = Type::Bool();
            break;
          case BinaryOp::kShl: case BinaryOp::kShr:
            // Shift result has the (promoted) type of the left operand.
            expr.type = arithmetic_result(bin.lhs->type, bin.lhs->type);
            break;
          default:
            expr.type = arithmetic_result(bin.lhs->type, bin.rhs->type);
            break;
        }
        break;
      }
      case Expr::Kind::kTernary: {
        auto& sel = static_cast<TernaryExpr&>(expr);
        check_expr(*sel.condition);
        check_expr(*sel.if_true);
        check_expr(*sel.if_false);
        require_scalar(*sel.condition, "condition");
        require_scalar(*sel.if_true, "ternary arm");
        require_scalar(*sel.if_false, "ternary arm");
        if (failed()) return;
        expr.type = arithmetic_result(sel.if_true->type, sel.if_false->type);
        break;
      }
      case Expr::Kind::kCall: {
        auto& call = static_cast<CallExpr&>(expr);
        const FuncDecl* callee = program_.find(call.callee);
        if (!callee) {
          fail(call.loc, format("call to undefined function '%s'", call.callee.c_str()));
          return;
        }
        if (call.args.size() != callee->params.size()) {
          fail(call.loc, format("'%s' expects %zu arguments, got %zu",
                                call.callee.c_str(), callee->params.size(),
                                call.args.size()));
          return;
        }
        for (std::size_t i = 0; i < call.args.size(); ++i) {
          const Param& param = callee->params[i];
          Expr& arg = *call.args[i];
          if (param.array_size != 0) {
            // Array parameters accept exactly an array variable of the same
            // element type and size (no slicing in the subset).
            if (arg.kind != Expr::Kind::kVarRef) {
              fail(arg.loc, format("argument %zu of '%s' must be an array "
                                   "variable", i + 1, call.callee.c_str()));
              return;
            }
            const auto& ref = static_cast<const VarRefExpr&>(arg);
            const VarInfo* info = lookup(ref.name);
            if (!info || info->array_size == 0) {
              fail(arg.loc, format("argument %zu of '%s' must be an array",
                                   i + 1, call.callee.c_str()));
              return;
            }
            if (info->dims != param.dims || !(info->type == param.type)) {
              fail(arg.loc, format("array argument %zu of '%s' has mismatched "
                                   "element type or dimensions",
                                   i + 1, call.callee.c_str()));
              return;
            }
            arg.type = param.type;  // element type, by convention
          } else {
            check_expr(arg);
            require_scalar(arg, "argument");
            if (failed()) return;
          }
        }
        expr.type = callee->return_type;
        break;
      }
      case Expr::Kind::kCast: {
        auto& cast = static_cast<CastExpr&>(expr);
        check_expr(*cast.operand);
        require_scalar(*cast.operand, "cast operand");
        if (cast.target.kind == Type::Kind::kVoid) {
          fail(cast.loc, "cannot cast to void");
          return;
        }
        expr.type = cast.target;
        break;
      }
      case Expr::Kind::kAssign: {
        auto& assign = static_cast<AssignExpr&>(expr);
        if (assign.target->kind != Expr::Kind::kVarRef &&
            assign.target->kind != Expr::Kind::kArrayIndex) {
          fail(assign.loc, "assignment target must be a variable or array element");
          return;
        }
        // For VarRef targets, bypass the scalar-use restriction check in
        // check_expr by validating directly.
        if (assign.target->kind == Expr::Kind::kVarRef) {
          auto& ref = static_cast<VarRefExpr&>(*assign.target);
          const VarInfo* info = lookup(ref.name);
          if (!info) {
            fail(ref.loc, format("use of undeclared identifier '%s'", ref.name.c_str()));
            return;
          }
          if (info->array_size != 0) {
            fail(ref.loc, format("cannot assign to array '%s'", ref.name.c_str()));
            return;
          }
          ref.type = info->type;
        } else {
          check_expr(*assign.target);
          auto& index = static_cast<ArrayIndexExpr&>(*assign.target);
          const VarInfo* info = lookup(index.array);
          if (info && info->is_const) {
            fail(index.loc, format("cannot write to const array '%s'",
                                   index.array.c_str()));
            return;
          }
        }
        check_expr(*assign.value);
        require_scalar(*assign.value, "assigned value");
        expr.type = assign.target->type;
        break;
      }
    }
  }

  Program& program_;
  FuncDecl* current_ = nullptr;
  std::vector<std::map<std::string, VarInfo>> scopes_;
  int loop_depth_ = 0;
  Status error_;
};

}  // namespace

Status typecheck(Program& program) { return Checker(program).run(); }

}  // namespace hermes::fe
