// Lexer for the C subset accepted by the HLS frontend.
//
// Bambu consumes "a program written in a well-known software language such as
// C/C++"; our reproduction accepts a C subset rich enough for the HERMES use
// cases (fixed-size arrays, integer arithmetic of explicit widths, loops,
// function calls).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/enum_names.hpp"
#include "common/status.hpp"

namespace hermes::fe {

/// 1-based source position for diagnostics.
struct SrcLoc {
  unsigned line = 1;
  unsigned column = 1;
};

#define HERMES_TOK_KINDS(X)                                                   \
  X(kEof, "<eof>") X(kIdentifier, "identifier")                               \
  X(kIntLiteral, "integer literal")                                           \
  /* Keywords, each named by its spelling: */                                 \
  X(kKwVoid, "void") X(kKwBool, "bool") X(kKwIf, "if") X(kKwElse, "else")     \
  X(kKwFor, "for") X(kKwWhile, "while") X(kKwDo, "do") X(kKwReturn, "return") \
  X(kKwBreak, "break") X(kKwContinue, "continue") X(kKwTrue, "true")          \
  X(kKwFalse, "false") X(kKwConst, "const")                                   \
  /* Punctuation / operators: */                                              \
  X(kLParen, "(") X(kRParen, ")") X(kLBrace, "{") X(kRBrace, "}")             \
  X(kLBracket, "[") X(kRBracket, "]") X(kComma, ",") X(kSemicolon, ";")       \
  X(kQuestion, "?") X(kColon, ":") X(kPlus, "+") X(kMinus, "-") X(kStar, "*") \
  X(kSlash, "/") X(kPercent, "%") X(kAmp, "&") X(kPipe, "|") X(kCaret, "^")   \
  X(kTilde, "~") X(kBang, "!") X(kShl, "<<") X(kShr, ">>") X(kLt, "<")        \
  X(kGt, ">") X(kLe, "<=") X(kGe, ">=") X(kEqEq, "==") X(kNe, "!=")           \
  X(kAmpAmp, "&&") X(kPipePipe, "||") X(kAssign, "=") X(kPlusAssign, "+=")    \
  X(kMinusAssign, "-=") X(kStarAssign, "*=") X(kPlusPlus, "++")               \
  X(kMinusMinus, "--")
HERMES_ENUM(TokKind, std::uint8_t, HERMES_TOK_KINDS)

struct Token {
  TokKind kind = TokKind::kEof;
  std::string text;          ///< identifier spelling or literal text
  std::uint64_t int_value = 0;  ///< for kIntLiteral
  SrcLoc loc;
};

/// Tokenizes `source`; on success the stream ends with a kEof token.
Result<std::vector<Token>> lex(std::string_view source);

}  // namespace hermes::fe
