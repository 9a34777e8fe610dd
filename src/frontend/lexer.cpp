#include "frontend/lexer.hpp"

#include <cctype>

#include "common/strings.hpp"

namespace hermes::fe {

namespace {

/// The keyword entries of the TokKind list (kKwVoid..kKwConst) are named by
/// their spelling; any other word is an identifier.
TokKind keyword_or_identifier(std::string_view text) {
  for (auto k = static_cast<std::size_t>(TokKind::kKwVoid);
       k <= static_cast<std::size_t>(TokKind::kKwConst); ++k) {
    if (text == kTokKindNames[k]) return static_cast<TokKind>(k);
  }
  return TokKind::kIdentifier;
}

class Lexer {
 public:
  explicit Lexer(std::string_view source) : source_(source) {}

  Result<std::vector<Token>> run() {
    std::vector<Token> tokens;
    while (true) {
      skip_whitespace_and_comments();
      if (!error_.ok()) return error_;
      if (at_end()) {
        tokens.push_back({TokKind::kEof, "", 0, loc_});
        return tokens;
      }
      Token token;
      token.loc = loc_;
      const char c = peek();
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        lex_identifier(token);
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        lex_number(token);
        if (!error_.ok()) return error_;
      } else {
        lex_punct(token);
        if (!error_.ok()) return error_;
      }
      tokens.push_back(std::move(token));
    }
  }

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= source_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < source_.size() ? source_[pos_ + ahead] : '\0';
  }
  char advance() {
    const char c = source_[pos_++];
    if (c == '\n') {
      ++loc_.line;
      loc_.column = 1;
    } else {
      ++loc_.column;
    }
    return c;
  }
  bool match(char expected) {
    if (at_end() || peek() != expected) return false;
    advance();
    return true;
  }

  void skip_whitespace_and_comments() {
    while (!at_end()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        advance();
      } else if (c == '/' && peek(1) == '/') {
        while (!at_end() && peek() != '\n') advance();
      } else if (c == '/' && peek(1) == '*') {
        advance();
        advance();
        while (!at_end() && !(peek() == '*' && peek(1) == '/')) advance();
        if (at_end()) {
          error_ = Status::Error(ErrorCode::kParseError,
                                 format("line %u: unterminated block comment", loc_.line));
          return;
        }
        advance();
        advance();
      } else {
        return;
      }
    }
  }

  void lex_identifier(Token& token) {
    std::string text;
    while (!at_end() && (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')) {
      text.push_back(advance());
    }
    token.kind = keyword_or_identifier(text);
    token.text = std::move(text);
  }

  void lex_number(Token& token) {
    token.kind = TokKind::kIntLiteral;
    std::uint64_t value = 0;
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
      advance();
      advance();
      bool any = false;
      while (!at_end() && std::isxdigit(static_cast<unsigned char>(peek()))) {
        const char c = advance();
        const unsigned digit = std::isdigit(static_cast<unsigned char>(c))
                                   ? static_cast<unsigned>(c - '0')
                                   : static_cast<unsigned>(std::tolower(c) - 'a' + 10);
        value = value * 16 + digit;
        any = true;
      }
      if (!any) {
        error_ = Status::Error(ErrorCode::kParseError,
                               format("line %u: malformed hex literal", token.loc.line));
        return;
      }
    } else {
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        value = value * 10 + static_cast<unsigned>(advance() - '0');
      }
    }
    // Optional integer suffixes (u, l, ul, ll, ull) are accepted and ignored.
    while (!at_end() && (peek() == 'u' || peek() == 'U' || peek() == 'l' || peek() == 'L')) {
      advance();
    }
    token.int_value = value;
    token.text = std::to_string(value);
  }

  void lex_punct(Token& token) {
    const char c = advance();
    switch (c) {
      case '(': token.kind = TokKind::kLParen; return;
      case ')': token.kind = TokKind::kRParen; return;
      case '{': token.kind = TokKind::kLBrace; return;
      case '}': token.kind = TokKind::kRBrace; return;
      case '[': token.kind = TokKind::kLBracket; return;
      case ']': token.kind = TokKind::kRBracket; return;
      case ',': token.kind = TokKind::kComma; return;
      case ';': token.kind = TokKind::kSemicolon; return;
      case '?': token.kind = TokKind::kQuestion; return;
      case ':': token.kind = TokKind::kColon; return;
      case '+':
        token.kind = match('=') ? TokKind::kPlusAssign
                    : match('+') ? TokKind::kPlusPlus
                                 : TokKind::kPlus;
        return;
      case '-':
        token.kind = match('=') ? TokKind::kMinusAssign
                    : match('-') ? TokKind::kMinusMinus
                                 : TokKind::kMinus;
        return;
      case '*':
        token.kind = match('=') ? TokKind::kStarAssign : TokKind::kStar;
        return;
      case '/': token.kind = TokKind::kSlash; return;
      case '%': token.kind = TokKind::kPercent; return;
      case '^': token.kind = TokKind::kCaret; return;
      case '~': token.kind = TokKind::kTilde; return;
      case '&':
        token.kind = match('&') ? TokKind::kAmpAmp : TokKind::kAmp;
        return;
      case '|':
        token.kind = match('|') ? TokKind::kPipePipe : TokKind::kPipe;
        return;
      case '!':
        token.kind = match('=') ? TokKind::kNe : TokKind::kBang;
        return;
      case '=':
        token.kind = match('=') ? TokKind::kEqEq : TokKind::kAssign;
        return;
      case '<':
        token.kind = match('<') ? TokKind::kShl
                    : match('=') ? TokKind::kLe
                                 : TokKind::kLt;
        return;
      case '>':
        token.kind = match('>') ? TokKind::kShr
                    : match('=') ? TokKind::kGe
                                 : TokKind::kGt;
        return;
      default:
        error_ = Status::Error(
            ErrorCode::kParseError,
            format("line %u: unexpected character '%c'", token.loc.line, c));
    }
  }

  std::string_view source_;
  std::size_t pos_ = 0;
  SrcLoc loc_;
  Status error_;
};

}  // namespace

Result<std::vector<Token>> lex(std::string_view source) {
  return Lexer(source).run();
}

}  // namespace hermes::fe
