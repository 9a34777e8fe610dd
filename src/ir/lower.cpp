#include "ir/lower.hpp"

#include <cassert>
#include <map>
#include <optional>
#include <vector>

#include "common/bits.hpp"
#include "common/strings.hpp"
#include "frontend/typecheck.hpp"

namespace hermes::ir {

IrType to_ir_type(const fe::Type& type) {
  switch (type.kind) {
    case fe::Type::Kind::kVoid: return {0, false};
    case fe::Type::Kind::kBool: return {1, false};
    case fe::Type::Kind::kInt: return {type.bits, type.is_signed};
  }
  return {32, true};
}

namespace {

using fe::Expr;
using fe::Stmt;

/// A named entity in scope: a scalar register or an array memory.
struct Binding {
  RegId reg = kNoReg;
  std::size_t mem = SIZE_MAX;
  std::vector<std::size_t> dims;  ///< per-dimension extents for arrays
  [[nodiscard]] bool is_array() const { return mem != SIZE_MAX; }
};

class Lowerer {
 public:
  Lowerer(const fe::Program& program, const LowerOptions& options)
      : program_(program), options_(options) {}

  Result<Function> run(std::string_view top) {
    const fe::FuncDecl* fn = program_.find(std::string(top));
    if (!fn) {
      return Status::Error(ErrorCode::kNotFound,
                           format("top function '%.*s' not found",
                                  static_cast<int>(top.size()), top.data()));
    }
    func_ = std::make_unique<Function>(fn->name);
    func_->return_type = to_ir_type(fn->return_type);
    current_ = func_->new_block();
    func_->entry = current_;

    push_scope();
    for (const fe::Param& param : fn->params) {
      ParamDecl decl;
      decl.name = param.name;
      decl.type = to_ir_type(param.type);
      if (param.array_size != 0) {
        MemDecl mem;
        mem.name = param.name;
        mem.element = decl.type;
        mem.depth = param.array_size;
        mem.is_interface = true;
        mem.is_rom = param.is_const;
        decl.mem = func_->add_memory(std::move(mem));
        bind(param.name, Binding{kNoReg, decl.mem, param.dims});
      } else {
        decl.reg = func_->new_reg(decl.type);
        bind(param.name, Binding{decl.reg, SIZE_MAX, {}});
      }
      func_->params.push_back(std::move(decl));
    }

    lower_block(*fn->body);
    pop_scope();
    if (!error_.ok()) return error_;

    // Implicit return for void functions / missing trailing return.
    if (!block_terminated()) {
      Instr ret;
      ret.op = Op::kRet;
      ret.src[0] = kNoReg;
      if (func_->return_type.bits != 0) {
        // Missing return in a value-returning function: return 0 (C UB; we
        // pick a deterministic value so hardware and interpreter agree).
        const RegId zero = emit_const(0, func_->return_type);
        ret.src[0] = zero;
      }
      emit(std::move(ret));
    }

    // Remove unreachable empty blocks created by lowering (e.g. after
    // return): give them a self-loop terminator so validation passes, the
    // dead-block cleanup in the pass pipeline will drop them.
    for (BlockId b = 0; b < func_->num_blocks(); ++b) {
      Block& block = func_->block(b);
      if (block.instrs.empty() || !is_terminator(block.instrs.back().op)) {
        Instr br;
        br.op = Op::kBr;
        br.target0 = b;
        block.instrs.push_back(br);
      }
    }

    Status valid = func_->validate();
    if (!valid.ok()) return valid;
    return std::move(*func_);
  }

 private:
  // ---- diagnostics ----
  void fail(fe::SrcLoc loc, std::string message) {
    if (error_.ok()) {
      error_ = Status::Error(ErrorCode::kUnsupported,
                             format("line %u: %s", loc.line, message.c_str()));
    }
  }
  [[nodiscard]] bool failed() const { return !error_.ok(); }

  // ---- scope ----
  void push_scope() { scopes_.emplace_back(); }
  void pop_scope() { scopes_.pop_back(); }
  void bind(const std::string& name, Binding binding) {
    scopes_.back()[name] = binding;
  }
  [[nodiscard]] const Binding* lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    return nullptr;
  }

  // ---- emission ----
  [[nodiscard]] bool block_terminated() const {
    const Block& block = func_->block(current_);
    return !block.instrs.empty() && is_terminator(block.instrs.back().op);
  }
  void emit(Instr instr) {
    if (block_terminated()) return;  // unreachable code is dropped
    func_->block(current_).instrs.push_back(std::move(instr));
  }
  void switch_to(BlockId block) { current_ = block; }
  void branch_to(BlockId target) {
    Instr br;
    br.op = Op::kBr;
    br.target0 = target;
    emit(std::move(br));
  }
  void cond_branch(RegId cond, BlockId if_true, BlockId if_false) {
    Instr br;
    br.op = Op::kCondBr;
    br.src[0] = cond;
    br.target0 = if_true;
    br.target1 = if_false;
    emit(std::move(br));
  }

  RegId emit_const(std::uint64_t value, IrType type) {
    const RegId reg = func_->new_reg(type);
    Instr instr;
    instr.op = Op::kConst;
    instr.type = type;
    instr.dest = reg;
    instr.imm = truncate(value, type.bits);
    emit(std::move(instr));
    return reg;
  }

  RegId emit_unop(Op op, RegId a, IrType type) {
    const RegId reg = func_->new_reg(type);
    Instr instr;
    instr.op = op;
    instr.type = type;
    instr.dest = reg;
    instr.src[0] = a;
    emit(std::move(instr));
    return reg;
  }

  RegId emit_binop(Op op, RegId a, RegId b, IrType type) {
    const RegId reg = func_->new_reg(type);
    Instr instr;
    instr.op = op;
    instr.type = type;
    instr.dest = reg;
    instr.src[0] = a;
    instr.src[1] = b;
    emit(std::move(instr));
    return reg;
  }

  /// Converts `value` (of register type) to `target`.
  RegId coerce(RegId value, IrType target) {
    const IrType from = func_->reg_type(value);
    if (from == target) return value;
    if (target.bits == 1) {
      // int -> bool: != 0
      const RegId zero = emit_const(0, from);
      return emit_binop(Op::kNe, value, zero, {1, false});
    }
    if (from.bits == target.bits) {
      // Same width, signedness differs: bit pattern unchanged.
      return emit_unop(Op::kCopy, value, target);
    }
    if (from.bits > target.bits) {
      return emit_unop(Op::kTrunc, value, target);
    }
    return emit_unop(from.is_signed ? Op::kSext : Op::kZext, value, target);
  }

  // ---- statements ----
  void lower_block(const fe::BlockStmt& block) {
    push_scope();
    for (const fe::StmtPtr& stmt : block.body) {
      if (failed()) break;
      lower_stmt(*stmt);
    }
    pop_scope();
  }

  void lower_stmt(const Stmt& stmt) {
    if (failed()) return;
    switch (stmt.kind) {
      case Stmt::Kind::kExpr:
        lower_expr(*static_cast<const fe::ExprStmt&>(stmt).expr);
        break;
      case Stmt::Kind::kVarDecl:
        lower_var_decl(static_cast<const fe::VarDeclStmt&>(stmt));
        break;
      case Stmt::Kind::kBlock:
        lower_block(static_cast<const fe::BlockStmt&>(stmt));
        break;
      case Stmt::Kind::kIf: {
        const auto& branch = static_cast<const fe::IfStmt&>(stmt);
        const RegId cond = lower_condition(*branch.condition);
        const BlockId then_block = func_->new_block();
        const BlockId join = func_->new_block();
        const BlockId else_block =
            branch.else_branch ? func_->new_block() : join;
        cond_branch(cond, then_block, else_block);
        switch_to(then_block);
        lower_stmt(*branch.then_branch);
        branch_to(join);
        if (branch.else_branch) {
          switch_to(else_block);
          lower_stmt(*branch.else_branch);
          branch_to(join);
        }
        switch_to(join);
        break;
      }
      case Stmt::Kind::kWhile: {
        const auto& loop = static_cast<const fe::WhileStmt&>(stmt);
        const BlockId header = func_->new_block();
        const BlockId body = func_->new_block();
        const BlockId exit = func_->new_block();
        branch_to(header);
        switch_to(header);
        const RegId cond = lower_condition(*loop.condition);
        cond_branch(cond, body, exit);
        loop_stack_.push_back({exit, header});
        switch_to(body);
        lower_stmt(*loop.body);
        branch_to(header);
        loop_stack_.pop_back();
        switch_to(exit);
        break;
      }
      case Stmt::Kind::kDoWhile: {
        const auto& loop = static_cast<const fe::DoWhileStmt&>(stmt);
        const BlockId body = func_->new_block();
        const BlockId latch = func_->new_block();
        const BlockId exit = func_->new_block();
        branch_to(body);
        loop_stack_.push_back({exit, latch});
        switch_to(body);
        lower_stmt(*loop.body);
        branch_to(latch);
        loop_stack_.pop_back();
        switch_to(latch);
        const RegId cond = lower_condition(*loop.condition);
        cond_branch(cond, body, exit);
        switch_to(exit);
        break;
      }
      case Stmt::Kind::kFor:
        lower_for(static_cast<const fe::ForStmt&>(stmt));
        break;
      case Stmt::Kind::kReturn: {
        const auto& ret = static_cast<const fe::ReturnStmt&>(stmt);
        RegId value = kNoReg;
        if (ret.value) {
          value = lower_expr(*ret.value);
          if (failed()) return;
        }
        if (!inline_stack_.empty()) {
          // Return inside an inlined callee: assign + jump to continuation.
          InlineContext& ctx = inline_stack_.back();
          if (ctx.result_reg != kNoReg && value != kNoReg) {
            const IrType result_type = func_->reg_type(ctx.result_reg);
            emit_copy_into(ctx.result_reg, coerce(value, result_type));
          }
          branch_to(ctx.continuation);
        } else {
          Instr instr;
          instr.op = Op::kRet;
          instr.src[0] = value == kNoReg
                             ? kNoReg
                             : coerce(value, func_->return_type);
          emit(std::move(instr));
        }
        // Subsequent statements in this block are unreachable; move to a
        // fresh block so lowering can continue harmlessly.
        switch_to(func_->new_block());
        break;
      }
      case Stmt::Kind::kBreak:
        if (!loop_stack_.empty()) {
          branch_to(loop_stack_.back().break_target);
          switch_to(func_->new_block());
        }
        break;
      case Stmt::Kind::kContinue:
        if (!loop_stack_.empty()) {
          branch_to(loop_stack_.back().continue_target);
          switch_to(func_->new_block());
        }
        break;
    }
  }

  void lower_var_decl(const fe::VarDeclStmt& decl) {
    const IrType type = to_ir_type(decl.type);
    if (decl.array_size != 0) {
      MemDecl mem;
      mem.name = unique_mem_name(decl.name);
      mem.element = type;
      mem.depth = decl.array_size;
      mem.is_interface = false;
      for (std::uint64_t v : decl.array_init) {
        mem.init.push_back(truncate(v, type.bits));
      }
      // C semantics: partially initialized arrays are zero-filled; fully
      // uninitialized local arrays are undefined, we zero them for
      // hardware/software agreement.
      mem.init.resize(decl.array_size, 0);
      const std::size_t index = func_->add_memory(std::move(mem));
      bind(decl.name, Binding{kNoReg, index, decl.dims});
      return;
    }
    const RegId reg = func_->new_reg(type);
    bind(decl.name, Binding{reg, SIZE_MAX, {}});
    RegId init;
    if (decl.init) {
      init = coerce(lower_expr(*decl.init), type);
    } else {
      init = emit_const(0, type);  // deterministic init (see array note)
    }
    emit_copy_into(reg, init);
  }

  void emit_copy_into(RegId dest, RegId src) {
    if (dest == src) return;
    Instr instr;
    instr.op = Op::kCopy;
    instr.type = func_->reg_type(dest);
    instr.dest = dest;
    instr.src[0] = src;
    emit(std::move(instr));
  }

  // ---- for loops (with optional full unrolling) ----
  struct CountedLoop {
    const fe::VarDeclStmt* decl;  ///< loop variable declaration
    std::int64_t start, bound, step;
    fe::BinaryOp cmp;
  };

  /// Recognizes `for (T i = C0; i <cmp> C1; i = i + C2)` with a loop-local
  /// declaration, constant bounds and a body free of break/continue and of
  /// writes to i.
  std::optional<CountedLoop> match_counted(const fe::ForStmt& loop) {
    if (!loop.init || !loop.condition || !loop.update) return std::nullopt;
    if (loop.init->kind != Stmt::Kind::kVarDecl) return std::nullopt;
    const auto& decl = static_cast<const fe::VarDeclStmt&>(*loop.init);
    if (decl.array_size != 0 || !decl.init) return std::nullopt;
    if (decl.init->kind != Expr::Kind::kIntLit) return std::nullopt;
    const auto start = static_cast<std::int64_t>(
        static_cast<const fe::IntLitExpr&>(*decl.init).value);

    if (loop.condition->kind != Expr::Kind::kBinary) return std::nullopt;
    const auto& cond = static_cast<const fe::BinaryExpr&>(*loop.condition);
    if (cond.op != fe::BinaryOp::kLt && cond.op != fe::BinaryOp::kLe)
      return std::nullopt;
    if (cond.lhs->kind != Expr::Kind::kVarRef ||
        static_cast<const fe::VarRefExpr&>(*cond.lhs).name != decl.name)
      return std::nullopt;
    if (cond.rhs->kind != Expr::Kind::kIntLit) return std::nullopt;
    const auto bound = static_cast<std::int64_t>(
        static_cast<const fe::IntLitExpr&>(*cond.rhs).value);

    if (loop.update->kind != Expr::Kind::kAssign) return std::nullopt;
    const auto& update = static_cast<const fe::AssignExpr&>(*loop.update);
    if (update.target->kind != Expr::Kind::kVarRef ||
        static_cast<const fe::VarRefExpr&>(*update.target).name != decl.name)
      return std::nullopt;
    if (update.value->kind != Expr::Kind::kBinary) return std::nullopt;
    const auto& add = static_cast<const fe::BinaryExpr&>(*update.value);
    if (add.op != fe::BinaryOp::kAdd) return std::nullopt;
    if (add.lhs->kind != Expr::Kind::kVarRef ||
        static_cast<const fe::VarRefExpr&>(*add.lhs).name != decl.name)
      return std::nullopt;
    if (add.rhs->kind != Expr::Kind::kIntLit) return std::nullopt;
    const auto step = static_cast<std::int64_t>(
        static_cast<const fe::IntLitExpr&>(*add.rhs).value);
    if (step <= 0) return std::nullopt;

    if (body_blocks_control(*loop.body, decl.name)) return std::nullopt;
    return CountedLoop{&decl, start, bound, step, cond.op};
  }

  /// True if the body contains break/continue/return or writes the loop var.
  /// (A nested loop's break/continue binds to it, so only `return` and
  /// writes matter there; the scan stays conservative and counts them all.)
  static bool body_blocks_control(const Stmt& stmt, const std::string& var) {
    if (stmt.kind == Stmt::Kind::kBreak || stmt.kind == Stmt::Kind::kContinue ||
        stmt.kind == Stmt::Kind::kReturn) {
      return true;
    }
    bool blocks = false;
    fe::for_each_child(
        stmt,
        [&](const Expr& child) { blocks = blocks || expr_writes(child, var); },
        [&](const Stmt& child) {
          blocks = blocks || body_blocks_control(child, var);
        });
    return blocks;
  }

  /// True if `expr` assigns the scalar `var`.
  static bool expr_writes(const Expr& expr, const std::string& var) {
    if (expr.kind == Expr::Kind::kAssign) {
      const auto& target = *static_cast<const fe::AssignExpr&>(expr).target;
      if (target.kind == Expr::Kind::kVarRef &&
          static_cast<const fe::VarRefExpr&>(target).name == var) {
        return true;
      }
    }
    bool writes = false;
    fe::for_each_child(expr, [&](const Expr& child) {
      writes = writes || expr_writes(child, var);
    });
    return writes;
  }

  void lower_for(const fe::ForStmt& loop) {
    if (options_.unroll_limit > 0) {
      if (auto counted = match_counted(loop)) {
        std::uint64_t trips = 0;
        for (std::int64_t i = counted->start;
             counted->cmp == fe::BinaryOp::kLt ? i < counted->bound
                                               : i <= counted->bound;
             i += counted->step) {
          ++trips;
          if (trips > options_.unroll_limit) break;
        }
        if (trips <= options_.unroll_limit) {
          lower_unrolled(loop, *counted);
          return;
        }
      }
    }
    // Generic rolled lowering.
    push_scope();
    if (loop.init) lower_stmt(*loop.init);
    const BlockId header = func_->new_block();
    const BlockId body = func_->new_block();
    const BlockId latch = func_->new_block();
    const BlockId exit = func_->new_block();
    branch_to(header);
    switch_to(header);
    if (loop.condition) {
      const RegId cond = lower_condition(*loop.condition);
      cond_branch(cond, body, exit);
    } else {
      branch_to(body);
    }
    loop_stack_.push_back({exit, latch});
    switch_to(body);
    lower_stmt(*loop.body);
    branch_to(latch);
    loop_stack_.pop_back();
    switch_to(latch);
    if (loop.update) lower_expr(*loop.update);
    branch_to(header);
    switch_to(exit);
    pop_scope();
  }

  void lower_unrolled(const fe::ForStmt& loop, const CountedLoop& counted) {
    push_scope();
    const IrType type = to_ir_type(counted.decl->type);
    const RegId ivar = func_->new_reg(type);
    bind(counted.decl->name, Binding{ivar, SIZE_MAX, {}});
    for (std::int64_t i = counted.start;
         counted.cmp == fe::BinaryOp::kLt ? i < counted.bound : i <= counted.bound;
         i += counted.step) {
      const RegId value = emit_const(static_cast<std::uint64_t>(i), type);
      emit_copy_into(ivar, value);
      lower_stmt(*loop.body);
      if (failed()) break;
    }
    pop_scope();
  }

  // ---- expressions ----
  RegId lower_condition(const Expr& expr) {
    const RegId value = lower_expr(expr);
    if (failed()) return value;
    return coerce(value, {1, false});
  }

  static Op binary_op_to_ir(fe::BinaryOp op) {
    switch (op) {
      case fe::BinaryOp::kAdd: return Op::kAdd;
      case fe::BinaryOp::kSub: return Op::kSub;
      case fe::BinaryOp::kMul: return Op::kMul;
      case fe::BinaryOp::kDiv: return Op::kDiv;
      case fe::BinaryOp::kRem: return Op::kRem;
      case fe::BinaryOp::kAnd: return Op::kAnd;
      case fe::BinaryOp::kOr: return Op::kOr;
      case fe::BinaryOp::kXor: return Op::kXor;
      case fe::BinaryOp::kShl: return Op::kShl;
      case fe::BinaryOp::kShr: return Op::kShr;
      case fe::BinaryOp::kEq: return Op::kEq;
      case fe::BinaryOp::kNe: return Op::kNe;
      case fe::BinaryOp::kLt: return Op::kLt;
      case fe::BinaryOp::kLe: return Op::kLe;
      default: return Op::kAdd;  // kGt/kGe/logical handled separately
    }
  }

  static bool expr_has_side_effects(const Expr& expr) {
    // Calls are inlined and may contain stores.
    if (expr.kind == Expr::Kind::kAssign || expr.kind == Expr::Kind::kCall) {
      return true;
    }
    bool effects = false;
    fe::for_each_child(expr, [&](const Expr& child) {
      effects = effects || expr_has_side_effects(child);
    });
    return effects;
  }

  RegId lower_expr(const Expr& expr) {
    if (failed()) return func_->new_reg({1, false});
    switch (expr.kind) {
      case Expr::Kind::kIntLit:
        return emit_const(static_cast<const fe::IntLitExpr&>(expr).value,
                          to_ir_type(expr.type));
      case Expr::Kind::kBoolLit:
        return emit_const(static_cast<const fe::BoolLitExpr&>(expr).value ? 1 : 0,
                          {1, false});
      case Expr::Kind::kVarRef: {
        const auto& ref = static_cast<const fe::VarRefExpr&>(expr);
        const Binding* binding = lookup(ref.name);
        assert(binding && !binding->is_array());
        return binding->reg;
      }
      case Expr::Kind::kArrayIndex: {
        const auto& index = static_cast<const fe::ArrayIndexExpr&>(expr);
        const Binding* binding = lookup(index.array);
        assert(binding && binding->is_array());
        const std::size_t mem = binding->mem;
        const std::vector<std::size_t> dims = binding->dims;
        const unsigned addr_bits =
            bit_width_of(func_->memories()[mem].depth > 1
                             ? func_->memories()[mem].depth - 1
                             : 1);
        const RegId addr = coerce(lower_linear_index(index, dims),
                                  {addr_bits, false});
        const RegId dest = func_->new_reg(to_ir_type(expr.type));
        Instr instr;
        instr.op = Op::kLoad;
        instr.type = to_ir_type(expr.type);
        instr.dest = dest;
        instr.src[0] = addr;
        instr.imm = mem;
        emit(std::move(instr));
        return dest;
      }
      case Expr::Kind::kUnary: {
        const auto& unary = static_cast<const fe::UnaryExpr&>(expr);
        const IrType type = to_ir_type(expr.type);
        switch (unary.op) {
          case fe::UnaryOp::kNeg: {
            const RegId operand = coerce(lower_expr(*unary.operand), type);
            const RegId zero = emit_const(0, type);
            return emit_binop(Op::kSub, zero, operand, type);
          }
          case fe::UnaryOp::kNot: {
            const RegId operand = lower_condition(*unary.operand);
            const RegId zero = emit_const(0, {1, false});
            return emit_binop(Op::kEq, operand, zero, {1, false});
          }
          case fe::UnaryOp::kBitNot: {
            const RegId operand = coerce(lower_expr(*unary.operand), type);
            return emit_unop(Op::kNot, operand, type);
          }
        }
        return kNoReg;
      }
      case Expr::Kind::kBinary: {
        const auto& bin = static_cast<const fe::BinaryExpr&>(expr);
        if (bin.op == fe::BinaryOp::kLogicalAnd ||
            bin.op == fe::BinaryOp::kLogicalOr) {
          return lower_logical(bin);
        }
        const IrType result = to_ir_type(expr.type);
        if (bin.op == fe::BinaryOp::kEq || bin.op == fe::BinaryOp::kNe ||
            bin.op == fe::BinaryOp::kLt || bin.op == fe::BinaryOp::kLe ||
            bin.op == fe::BinaryOp::kGt || bin.op == fe::BinaryOp::kGe) {
          // Comparisons are done in the common arithmetic type of the
          // operands; kGt/kGe lower to kLt/kLe with swapped operands.
          const fe::Type common =
              fe::arithmetic_result(bin.lhs->type, bin.rhs->type);
          const IrType cmp_type = to_ir_type(common);
          RegId lhs = coerce(lower_expr(*bin.lhs), cmp_type);
          RegId rhs = coerce(lower_expr(*bin.rhs), cmp_type);
          fe::BinaryOp op = bin.op;
          if (op == fe::BinaryOp::kGt) { std::swap(lhs, rhs); op = fe::BinaryOp::kLt; }
          if (op == fe::BinaryOp::kGe) { std::swap(lhs, rhs); op = fe::BinaryOp::kLe; }
          const RegId dest = func_->new_reg({1, false});
          Instr instr;
          instr.op = binary_op_to_ir(op);
          instr.type = cmp_type;  // comparison width/signedness
          instr.dest = dest;
          instr.src[0] = lhs;
          instr.src[1] = rhs;
          emit(std::move(instr));
          return dest;
        }
        if (bin.op == fe::BinaryOp::kShl || bin.op == fe::BinaryOp::kShr) {
          const RegId lhs = coerce(lower_expr(*bin.lhs), result);
          // Shift amounts are taken as unsigned of the result width.
          const RegId rhs =
              coerce(lower_expr(*bin.rhs), {result.bits, false});
          return emit_binop(binary_op_to_ir(bin.op), lhs, rhs, result);
        }
        const RegId lhs = coerce(lower_expr(*bin.lhs), result);
        const RegId rhs = coerce(lower_expr(*bin.rhs), result);
        return emit_binop(binary_op_to_ir(bin.op), lhs, rhs, result);
      }
      case Expr::Kind::kTernary: {
        const auto& sel = static_cast<const fe::TernaryExpr&>(expr);
        const IrType type = to_ir_type(expr.type);
        if (!expr_has_side_effects(*sel.if_true) &&
            !expr_has_side_effects(*sel.if_false)) {
          // Pure arms: speculate both and select (cheap in hardware).
          const RegId cond = lower_condition(*sel.condition);
          const RegId if_true = coerce(lower_expr(*sel.if_true), type);
          const RegId if_false = coerce(lower_expr(*sel.if_false), type);
          const RegId dest = func_->new_reg(type);
          Instr instr;
          instr.op = Op::kSelect;
          instr.type = type;
          instr.dest = dest;
          instr.src[0] = cond;
          instr.src[1] = if_true;
          instr.src[2] = if_false;
          emit(std::move(instr));
          return dest;
        }
        // Effectful arms need control flow.
        const RegId result = func_->new_reg(type);
        const RegId cond = lower_condition(*sel.condition);
        const BlockId then_block = func_->new_block();
        const BlockId else_block = func_->new_block();
        const BlockId join = func_->new_block();
        cond_branch(cond, then_block, else_block);
        switch_to(then_block);
        emit_copy_into(result, coerce(lower_expr(*sel.if_true), type));
        branch_to(join);
        switch_to(else_block);
        emit_copy_into(result, coerce(lower_expr(*sel.if_false), type));
        branch_to(join);
        switch_to(join);
        return result;
      }
      case Expr::Kind::kCall:
        return lower_call(static_cast<const fe::CallExpr&>(expr));
      case Expr::Kind::kCast: {
        const auto& cast = static_cast<const fe::CastExpr&>(expr);
        return coerce(lower_expr(*cast.operand), to_ir_type(cast.target));
      }
      case Expr::Kind::kAssign: {
        const auto& assign = static_cast<const fe::AssignExpr&>(expr);
        if (assign.target->kind == Expr::Kind::kVarRef) {
          const auto& ref = static_cast<const fe::VarRefExpr&>(*assign.target);
          const Binding* binding = lookup(ref.name);
          assert(binding && !binding->is_array());
          // Copy the type BEFORE lowering the value: reg_type() returns a
          // reference into a vector that lower_expr may reallocate, and the
          // compiler is free to interleave argument evaluations.
          const RegId target_reg = binding->reg;
          const IrType target_type = func_->reg_type(target_reg);
          const RegId value = coerce(lower_expr(*assign.value), target_type);
          emit_copy_into(target_reg, value);
          return target_reg;
        }
        const auto& index = static_cast<const fe::ArrayIndexExpr&>(*assign.target);
        const Binding* binding = lookup(index.array);
        assert(binding && binding->is_array());
        const std::size_t mem = binding->mem;
        const std::vector<std::size_t> dims = binding->dims;
        const unsigned addr_bits =
            bit_width_of(func_->memories()[mem].depth > 1
                             ? func_->memories()[mem].depth - 1
                             : 1);
        const RegId addr = coerce(lower_linear_index(index, dims),
                                  {addr_bits, false});
        const IrType element = func_->memories()[mem].element;
        const RegId value = coerce(lower_expr(*assign.value), element);
        Instr instr;
        instr.op = Op::kStore;
        instr.type = element;
        instr.src[0] = addr;
        instr.src[1] = value;
        instr.imm = mem;
        emit(std::move(instr));
        return value;
      }
    }
    return kNoReg;
  }

  /// Row-major linearization of a (possibly multi-dimensional) index
  /// expression: ((i0 * d1 + i1) * d2 + i2)..., computed in u32.
  RegId lower_linear_index(const fe::ArrayIndexExpr& index,
                           const std::vector<std::size_t>& dims) {
    const IrType u32{32, false};
    RegId linear = coerce(lower_expr(*index.indices[0]), u32);
    for (std::size_t d = 1; d < index.indices.size(); ++d) {
      const RegId extent = emit_const(dims[d], u32);
      const RegId scaled = emit_binop(Op::kMul, linear, extent, u32);
      const RegId next = coerce(lower_expr(*index.indices[d]), u32);
      linear = emit_binop(Op::kAdd, scaled, next, u32);
    }
    return linear;
  }

  RegId lower_logical(const fe::BinaryExpr& bin) {
    // Short-circuit via control flow, matching C semantics even when the
    // right operand has side effects (an inlined call with stores).
    const bool is_and = bin.op == fe::BinaryOp::kLogicalAnd;
    const RegId result = func_->new_reg({1, false});
    const RegId lhs = lower_condition(*bin.lhs);
    emit_copy_into(result, lhs);
    const BlockId rhs_block = func_->new_block();
    const BlockId join = func_->new_block();
    if (is_and) {
      cond_branch(lhs, rhs_block, join);
    } else {
      cond_branch(lhs, join, rhs_block);
    }
    switch_to(rhs_block);
    const RegId rhs = lower_condition(*bin.rhs);
    emit_copy_into(result, rhs);
    branch_to(join);
    switch_to(join);
    return result;
  }

  RegId lower_call(const fe::CallExpr& call) {
    const fe::FuncDecl* callee = program_.find(call.callee);
    assert(callee && "typechecker guarantees callee exists");

    // Evaluate scalar arguments in the caller's scope first.
    std::vector<Binding> arg_bindings;
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      const fe::Param& param = callee->params[i];
      if (param.array_size != 0) {
        const auto& ref = static_cast<const fe::VarRefExpr&>(*call.args[i]);
        const Binding* binding = lookup(ref.name);
        assert(binding && binding->is_array());
        arg_bindings.push_back(*binding);
      } else {
        const IrType type = to_ir_type(param.type);
        // Copy into a fresh register so callee-local mutation of the
        // parameter cannot affect the caller (C pass-by-value).
        const RegId value = coerce(lower_expr(*call.args[i]), type);
        const RegId local = func_->new_reg(type);
        emit_copy_into(local, value);
        arg_bindings.push_back(Binding{local, SIZE_MAX, {}});
      }
    }

    const IrType ret_type = to_ir_type(callee->return_type);
    InlineContext ctx;
    ctx.result_reg = ret_type.bits == 0 ? kNoReg : func_->new_reg(ret_type);
    ctx.continuation = func_->new_block();
    if (ctx.result_reg != kNoReg) {
      // Deterministic default if the callee falls off the end.
      emit_copy_into(ctx.result_reg, emit_const(0, ret_type));
    }

    inline_stack_.push_back(ctx);
    push_scope();
    for (std::size_t i = 0; i < callee->params.size(); ++i) {
      bind(callee->params[i].name, arg_bindings[i]);
    }
    lower_block(*callee->body);
    pop_scope();
    inline_stack_.pop_back();

    branch_to(ctx.continuation);
    switch_to(ctx.continuation);
    return ctx.result_reg;
  }

  std::string unique_mem_name(const std::string& base) {
    return format("%s_m%zu", base.c_str(), func_->memories().size());
  }

  struct LoopTargets {
    BlockId break_target;
    BlockId continue_target;
  };
  struct InlineContext {
    RegId result_reg = kNoReg;
    BlockId continuation = kNoBlock;
  };

  const fe::Program& program_;
  const LowerOptions& options_;
  std::unique_ptr<Function> func_;
  BlockId current_ = 0;
  std::vector<std::map<std::string, Binding>> scopes_;
  std::vector<LoopTargets> loop_stack_;
  std::vector<InlineContext> inline_stack_;
  Status error_;
};

}  // namespace

Result<Function> lower(const fe::Program& program, std::string_view top,
                       const LowerOptions& options) {
  return Lowerer(program, options).run(top);
}

}  // namespace hermes::ir
